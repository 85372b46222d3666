"""Polygon union in MapReduce.

Three variants, following the paper's progression:

* **Hadoop**: random partitioning; each map task unions its blob of
  polygons, one reducer unions the survivors. Random placement removes few
  interior edges locally, so the reducer does most of the work.
* **SpatialHadoop**: identical plan over a spatially partitioned file;
  adjacent polygons meet in the same partition, so local unions dissolve
  most interior edges and the reducer's input is small.
* **Enhanced** (map-only, disjoint index): each partition unions its
  polygons and *clips the result to the partition boundary*, writing
  boundary segments straight to the output. Every union-boundary segment
  is produced by exactly one partition, so no merge step exists at all —
  the output is a distributed set of segments.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of, spatial_splitter
from repro.geometry import Point, Polygon
from repro.geometry.feature import Feature
from repro.geometry.algorithms.clip import clip_segment
from repro.geometry.algorithms.union import polygon_union, rings_union
from repro.observe.plan import PlanNode
from repro.operations.common import (
    ShapeError,
    plan_full_scan,
    plan_indexed_scan,
)
from repro.mapreduce import Job, JobRunner

Segment = Tuple[Point, Point]


def _polygon(record) -> Polygon:
    """The polygon of a record, a Feature unwrapped to its shape."""
    shape = record.shape if isinstance(record, Feature) else record
    if not isinstance(shape, Polygon):
        raise ShapeError(
            f"union defined on polygons only; found {type(shape).__name__}"
        )
    return shape


def _shapes(records) -> List[Polygon]:
    """The polygons of ``records`` (see :func:`_polygon`)."""
    return list(map(_polygon, records))


def _map_local_union(_key, block, ctx):
    # The whole local union is one multi-ring geometry (outers + holes);
    # shipping it as a unit lets the reducer re-union under even-odd
    # semantics. Each ring is emitted separately for honest shuffle counts,
    # tagged so the reducer can reassemble the geometry.
    rings = polygon_union(_shapes(block))
    for ring in rings:
        ctx.emit(1, (ctx.split.block_index, ring))


def _reduce_global_union(_key, tagged_rings, ctx):
    geometries = {}
    for task_id, ring in tagged_rings:
        geometries.setdefault(task_id, []).append(ring)
    for ring in rings_union(list(geometries.values())):
        ctx.emit(1, ring)


def _map_spatial_union(cell, block, ctx):
    """Local union of the polygons this partition owns (module-level:
    picklable)."""
    dedup = ctx.config["dedup"]
    polygons: List[Polygon] = []
    for poly in _shapes(block):
        if dedup and not cell.contains_point_left_inclusive(
            Point(poly.mbr.x1, poly.mbr.y1)
        ):
            continue  # a replica: exactly one partition owns each polygon
        polygons.append(poly)
    for ring in polygon_union(polygons):
        ctx.emit(1, (ctx.split.block_index, ring))


def _map_enhanced_union(cell, block, ctx):
    """Local union clipped to the partition (module-level: picklable)."""
    for ring in polygon_union(_shapes(block)):
        for a, b in ring.edges():
            clipped = clip_segment(a, b, cell)
            if clipped is not None:
                ctx.write_output(clipped)


def union_hadoop(runner: JobRunner, file_name: str) -> OperationResult:
    """Random-partitioned union with a single merging reducer."""
    job = Job(
        input_file=file_name,
        map_fn=_map_local_union,
        reduce_fn=_reduce_global_union,
        name=f"union-hadoop({file_name})",
    )
    result = runner.run(job)
    return OperationResult(answer=result.output, jobs=[result], system="hadoop")


def union_spatial(runner: JobRunner, file_name: str) -> OperationResult:
    """Spatially partitioned union; the reducer merges the local unions."""
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")

    job = Job(
        input_file=file_name,
        map_fn=_map_spatial_union,
        reduce_fn=_reduce_global_union,
        splitter=spatial_splitter(),
        config={"dedup": gindex.disjoint},
        name=f"union-spatial({file_name})",
    )
    result = runner.run(job)
    return OperationResult(answer=result.output, jobs=[result])


def union_enhanced(runner: JobRunner, file_name: str) -> OperationResult:
    """Map-only union; the answer is the set of boundary segments.

    Requires a disjoint index: the clipping rule ("keep only what lies
    inside my partition") is exactly-once only when partitions tile the
    space and replicated polygons reach every partition they overlap.
    """
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    if not gindex.disjoint:
        raise ValueError("the enhanced union needs a disjoint index")

    job = Job(
        input_file=file_name,
        map_fn=_map_enhanced_union,
        splitter=spatial_splitter(),
        name=f"union-enhanced({file_name})",
    )
    result = runner.run(job)
    return OperationResult(answer=result.output, jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def plan_union(
    runner: JobRunner, file_name: str, enhanced: bool = False
) -> PlanNode:
    """EXPLAIN plan for the polygon-union operation."""
    gindex = global_index_of(runner.fs, file_name)
    op_name = f"Union({file_name})"
    if enhanced:
        if gindex is None:
            raise ValueError(f"{file_name!r} is not spatially indexed")
        plan = plan_indexed_scan(
            runner,
            op_name,
            f"job:union-enhanced({file_name})",
            gindex,
            list(gindex),
            map_desc="local union clipped to partition boundary",
            detail={"variant": "enhanced (map-only)"},
        )
        if not gindex.disjoint:
            plan.detail["note"] = "boundary clipping requires a disjoint index"
        return plan
    if gindex is None:
        return plan_full_scan(
            runner,
            file_name,
            op_name,
            f"job:union-hadoop({file_name})",
            map_desc="per-block local union",
            reduce_desc="union of survivors",
            shuffle_per_block=1,
            detail={"variant": "random partitioning"},
        )
    # Spatially partitioned: adjacent polygons meet in the same partition,
    # so each partition ships roughly one dissolved blob of rings.
    return plan_indexed_scan(
        runner,
        op_name,
        f"job:union-spatial({file_name})",
        gindex,
        list(gindex),
        map_desc="per-partition local union",
        reduce_desc="union of local unions",
        shuffle_records=len(gindex),
        detail={"variant": "spatial partitioning"},
    )
