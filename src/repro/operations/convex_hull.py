"""Convex hull in MapReduce.

* **Hadoop**: local hull per block (map), global hull of the local hulls'
  vertices in one reducer. Correct because the hull of a union equals the
  hull of the union of local hulls.
* **SpatialHadoop**: adds the *filter* step — a hull vertex must lie on one
  of the four directional skylines (max-max, max-min, min-max, min-min), so
  any partition pruned by all four skyline filters can be skipped.
"""

from __future__ import annotations

from typing import List, Set

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of, spatial_splitter
from repro.geometry import Rectangle
from repro.geometry.algorithms.convex_hull import convex_hull, hull_of_columns
from repro.geometry.algorithms.skyline import dominates
from repro.observe.plan import PlanNode
from repro.operations.common import plan_full_scan, plan_indexed_scan, point_columns
from repro.index.global_index import Cell, GlobalIndex
from repro.mapreduce import Counter, Job, JobRunner

#: The four quadrant directions of the hull filter.
_DIRECTIONS = ((1, 1), (1, -1), (-1, 1), (-1, -1))


def _transform_rect(mbr: Rectangle, sx: int, sy: int) -> Rectangle:
    xs = sorted((sx * mbr.x1, sx * mbr.x2))
    ys = sorted((sy * mbr.y1, sy * mbr.y2))
    return Rectangle(xs[0], ys[0], xs[1], ys[1])


def _directional_survivors(gindex: GlobalIndex, sx: int, sy: int) -> Set[int]:
    """Cells that may contribute to the skyline in direction ``(sx, sy)``."""
    transformed = [
        (cell.cell_id, _transform_rect(cell.tight_mbr, sx, sy)) for cell in gindex
    ]
    survivors: Set[int] = set()
    for cid, mbr in transformed:
        target = mbr.top_right
        dominated = False
        for other_id, other in transformed:
            if other_id == cid:
                continue
            corners = [other.bottom_left, other.bottom_right, other.top_left]
            if any(dominates(c, target) for c in corners):
                dominated = True
                break
        if not dominated:
            survivors.add(cid)
    return survivors


def convex_hull_filter(gindex: GlobalIndex) -> List[Cell]:
    """Union of the four directional skyline filters."""
    keep: Set[int] = set()
    for sx, sy in _DIRECTIONS:
        keep |= _directional_survivors(gindex, sx, sy)
    return [c for c in gindex if c.cell_id in keep]


def _map_local_hull(_key, block, ctx):
    for p in hull_of_columns(*point_columns(block)):
        ctx.emit(1, p)


def _reduce_global_hull(_key, points, ctx):
    for p in convex_hull(points):
        ctx.emit(1, p)


def convex_hull_hadoop(runner: JobRunner, file_name: str) -> OperationResult:
    """Unindexed convex hull: every block contributes its local hull."""
    job = Job(
        input_file=file_name,
        map_fn=_map_local_hull,
        combine_fn=_reduce_global_hull,
        reduce_fn=_reduce_global_hull,
        name=f"hull-hadoop({file_name})",
    )
    result = runner.run(job)
    return OperationResult(
        answer=convex_hull(result.output), jobs=[result], system="hadoop"
    )


def convex_hull_spatial(
    runner: JobRunner, file_name: str, prune: bool = True
) -> OperationResult:
    """Indexed convex hull with the four-skyline filter step."""
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    with runner.recorder.tracer.span(
        f"op:hull-spatial({file_name})",
        kind="operation",
        file=file_name,
        pruning=prune,
    ) as op_span:
        job = Job(
            input_file=file_name,
            map_fn=_map_local_hull,
            combine_fn=_reduce_global_hull,
            reduce_fn=_reduce_global_hull,
            splitter=spatial_splitter(convex_hull_filter if prune else None),
            name=f"hull-spatial({file_name})",
        )
        result = runner.run(job)
        op_span.set("hull_size", len(result.output))
        op_span.set(
            "partitions_pruned", result.counters.get(Counter.BLOCKS_PRUNED)
        )
    # The reducer's hull, normalised to a clean CCW vertex list.
    return OperationResult(answer=convex_hull(result.output), jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def plan_convex_hull(
    runner: JobRunner, file_name: str, prune: bool = True
) -> PlanNode:
    """EXPLAIN plan for the convex-hull operation."""
    from repro.operations.skyline import est_summary_size

    gindex = global_index_of(runner.fs, file_name)
    op_name = f"ConvexHull({file_name})"
    if gindex is None:
        entry = runner.fs.get(file_name)
        return plan_full_scan(
            runner,
            file_name,
            op_name,
            f"job:hull-hadoop({file_name})",
            map_desc="per-block local hull",
            reduce_desc="hull of hulls",
            shuffle_per_block=est_summary_size(
                entry.num_records // max(1, entry.num_blocks)
            ),
        )
    selected = convex_hull_filter(gindex) if prune else list(gindex)
    return plan_indexed_scan(
        runner,
        op_name,
        f"job:hull-spatial({file_name})",
        gindex,
        selected,
        map_desc="per-partition local hull",
        reduce_desc="hull of hulls",
        shuffle_records=sum(est_summary_size(c.num_records) for c in selected),
        filter_desc="four-directional skyline" if prune else "every-partition",
    )
