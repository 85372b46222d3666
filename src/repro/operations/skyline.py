"""Skyline (max-max maximal points) in MapReduce.

Three algorithms, following the paper's progression:

* **Hadoop**: local skyline per block (map), global skyline in one reducer.
* **SpatialHadoop**: the same plus the *filter* step — partitions whose
  top-right corner is dominated by a corner of another partition's minimal
  MBR cannot contribute and are pruned before any block is read.
* **Output-sensitive** (disjoint indexes only): a map-only job; each
  partition prunes its local skyline against the broadcast *global
  dominance power set* (SKY) and writes surviving points straight to the
  output — no single-machine merge at all.
"""

from __future__ import annotations

import math
from typing import List

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of, spatial_splitter
from repro.geometry import Point, Rectangle
from repro.geometry.algorithms.skyline import dominates, skyline
from repro.observe.plan import PlanNode
from repro.operations.common import as_points, plan_full_scan, plan_indexed_scan
from repro.index.global_index import Cell, GlobalIndex
from repro.mapreduce import Counter, Job, JobRunner


def _corner_dominators(mbr: Rectangle) -> List[Point]:
    """Corners of a *minimal* MBR guaranteed to dominate transitively.

    Minimality puts at least one record point on every MBR edge, so a
    record exists that dominates anything the bottom-left, bottom-right or
    top-left corner dominates.
    """
    return [mbr.bottom_left, mbr.bottom_right, mbr.top_left]


def _cell_dominated(candidate: Cell, others: List[Cell]) -> bool:
    """The paper's filter rule on minimal content MBRs."""
    target = candidate.tight_mbr.top_right
    for other in others:
        if other.cell_id == candidate.cell_id:
            continue
        if any(dominates(c, target) for c in _corner_dominators(other.tight_mbr)):
            return True
    return False


def skyline_filter(gindex: GlobalIndex) -> List[Cell]:
    """Keep only partitions that can contribute skyline points."""
    cells = list(gindex)
    return [c for c in cells if not _cell_dominated(c, cells)]


def _map_local_skyline(_key, block, ctx):
    for p in skyline(as_points(block)):
        ctx.emit(1, p)


def _reduce_global_skyline(_key, points, ctx):
    for p in skyline(points):
        ctx.emit(1, p)


def _map_os_skyline(_cell, block, ctx):
    """Local skyline minus what the dominance power set dominates
    (module-level: picklable)."""
    for p in skyline(as_points(block)):
        if not any(dominates(q, p) for q in ctx.config["sky"]):
            ctx.write_output(p)


def skyline_hadoop(runner: JobRunner, file_name: str) -> OperationResult:
    """Unindexed skyline: all blocks processed, single merging reducer."""
    job = Job(
        input_file=file_name,
        map_fn=_map_local_skyline,
        combine_fn=_reduce_global_skyline,
        reduce_fn=_reduce_global_skyline,
        name=f"skyline-hadoop({file_name})",
    )
    result = runner.run(job)
    return OperationResult(
        answer=sorted(result.output), jobs=[result], system="hadoop"
    )


def skyline_spatial(
    runner: JobRunner, file_name: str, prune: bool = True
) -> OperationResult:
    """Indexed skyline with the partition-dominance filter step."""
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    with runner.recorder.tracer.span(
        f"op:skyline-spatial({file_name})",
        kind="operation",
        file=file_name,
        pruning=prune,
    ) as op_span:
        job = Job(
            input_file=file_name,
            map_fn=_map_local_skyline,
            combine_fn=_reduce_global_skyline,
            reduce_fn=_reduce_global_skyline,
            splitter=spatial_splitter(skyline_filter if prune else None),
            name=f"skyline-spatial({file_name})",
        )
        result = runner.run(job)
        op_span.set("skyline_size", len(result.output))
        op_span.set(
            "partitions_pruned", result.counters.get(Counter.BLOCKS_PRUNED)
        )
    return OperationResult(answer=sorted(result.output), jobs=[result])


def skyline_output_sensitive(
    runner: JobRunner, file_name: str
) -> OperationResult:
    """Map-only skyline using the dominance-power rule (Theorem 2).

    Requires a *disjoint* index: each partition is separable from every
    other by an orthogonal line, which is what makes the two-corner
    dominance power set of a cell sufficient.
    """
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    if not gindex.disjoint:
        raise ValueError("the output-sensitive skyline needs a disjoint index")

    # Global dominance power set: skyline of every cell's top-left and
    # bottom-right tight-MBR corners (computed by the master, broadcast).
    power_points: List[Point] = []
    for cell in gindex:
        mbr = cell.tight_mbr
        power_points.extend((mbr.top_left, mbr.bottom_right))
    sky = skyline(power_points)

    job = Job(
        input_file=file_name,
        map_fn=_map_os_skyline,
        splitter=spatial_splitter(skyline_filter),
        config={"sky": sky},
        name=f"skyline-os({file_name})",
    )
    result = runner.run(job)
    return OperationResult(answer=sorted(result.output), jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def est_summary_size(num_records: int) -> int:
    """Expected skyline/hull size of a uniform point set: O(log n)."""
    return max(1, round(math.log(num_records + 1)))


def plan_skyline(
    runner: JobRunner, file_name: str, prune: bool = True
) -> PlanNode:
    """EXPLAIN plan for the skyline operation."""
    gindex = global_index_of(runner.fs, file_name)
    op_name = f"Skyline({file_name})"
    if gindex is None:
        entry = runner.fs.get(file_name)
        return plan_full_scan(
            runner,
            file_name,
            op_name,
            f"job:skyline-hadoop({file_name})",
            map_desc="per-block local skyline",
            reduce_desc="global skyline",
            shuffle_per_block=est_summary_size(
                entry.num_records // max(1, entry.num_blocks)
            ),
        )
    selected = skyline_filter(gindex) if prune else list(gindex)
    return plan_indexed_scan(
        runner,
        op_name,
        f"job:skyline-spatial({file_name})",
        gindex,
        selected,
        map_desc="per-partition local skyline",
        reduce_desc="global skyline",
        shuffle_records=sum(est_summary_size(c.num_records) for c in selected),
        filter_desc="partition-dominance" if prune else "every-partition",
    )
