"""Farthest pair (diameter) in MapReduce.

* **Hadoop**: local convex hull per block; one reducer computes the hull of
  the local hulls and runs rotating calipers — correct because the two
  farthest points lie on the global hull, which is the hull of the union of
  the local hulls.
* **SpatialHadoop**: the filter step works on *pairs of partitions*. The
  tight MBRs give a lower bound (minimality: a record touches each side)
  and an upper bound (corner-to-corner) on the farthest pair of every cell
  pair; a pair whose upper bound is below the greatest lower bound can
  never win and is pruned. Each surviving pair is processed by one map
  task; the reducer keeps the maximum.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of
from repro.geometry.algorithms.convex_hull import convex_hull, hull_of_columns
from repro.geometry.algorithms.farthest_pair import farthest_pair_on_hull
from repro.observe.plan import PlanNode, estimate_job_cost
from repro.operations.common import plan_full_scan, point_columns
from repro.operations.convex_hull import _map_local_hull, _reduce_global_hull
from repro.index.global_index import GlobalIndex
from repro.mapreduce import Block, Job, JobRunner
from repro.mapreduce.types import InputSplit


def _reduce_calipers(_key, points, ctx):
    """Calipers on the hull of the local hulls (module-level: picklable)."""
    pair = farthest_pair_on_hull(convex_hull(points))
    if pair is not None:
        ctx.emit(1, pair)


def farthest_pair_hadoop(runner: JobRunner, file_name: str) -> OperationResult:
    """Unindexed farthest pair via hull-of-hulls."""
    job = Job(
        input_file=file_name,
        map_fn=_map_local_hull,
        combine_fn=_reduce_global_hull,
        reduce_fn=_reduce_calipers,
        name=f"farthest-hadoop({file_name})",
    )
    result = runner.run(job)
    answer = result.output[0] if result.output else None
    return OperationResult(answer=answer, jobs=[result], system="hadoop")


def select_cell_pairs(gindex: GlobalIndex) -> List[Tuple[int, int]]:
    """The two-pass pair filter: keep pairs whose upper bound >= GLB."""
    cells = [c for c in gindex if c.num_records > 0]
    glb = 0.0
    for i in range(len(cells)):
        for j in range(i, len(cells)):
            a, b = cells[i].tight_mbr, cells[j].tight_mbr
            if i == j:
                # A single minimal MBR guarantees a pair spanning its
                # longer side (one record on each of the two far edges).
                lower = max(a.width, a.height) if cells[i].num_records >= 2 else 0.0
            else:
                lower = a.farthest_pair_lower_bound(b)
            glb = max(glb, lower)
    selected: List[Tuple[int, int]] = []
    for i in range(len(cells)):
        for j in range(i, len(cells)):
            a, b = cells[i].tight_mbr, cells[j].tight_mbr
            upper = a.max_distance_rect(b)
            if upper >= glb:
                selected.append((cells[i].cell_id, cells[j].cell_id))
    return selected


def _map_cell_pair(cells, _block, ctx):
    """Calipers on the hull of one cell pair's points (module-level:
    picklable); ``cells`` holds each cell's ``(xs, ys)`` columns."""
    xs, ys = (np.concatenate(axis) for axis in zip(*cells))
    pair = farthest_pair_on_hull(hull_of_columns(xs, ys))
    if pair is not None:
        ctx.emit(1, pair)


def _reduce_farthest(_key, candidate_pairs, ctx):
    """The farthest of the per-pair candidates (module-level: picklable)."""
    ctx.emit(1, max(candidate_pairs, key=lambda pr: pr[0].distance_sq(pr[1])))


def farthest_pair_spatial(runner: JobRunner, file_name: str) -> OperationResult:
    """Indexed farthest pair with the cell-pair dominance filter."""
    fs = runner.fs
    gindex = global_index_of(fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")

    # One virtual split per surviving cell pair, carrying the two cells'
    # point columns (one cell's for a pair of a cell with itself); its
    # block stands for the rows the task reads. The driver reads the
    # columns outside any split, so it verifies the file first.
    runner.verify_driver_read(file_name)
    blocks = {b.metadata["cell_id"]: b for b in fs.get(file_name).blocks}
    columns = {cell_id: point_columns(b) for cell_id, b in blocks.items()}
    splits: List[InputSplit] = []
    for pair in select_cell_pairs(gindex):
        cells = tuple(dict.fromkeys(pair))
        splits.append(InputSplit(
            file=file_name,
            block_index=len(splits),
            block=Block(records=range(sum(len(blocks[c]) for c in cells))),
            key=tuple(columns[c] for c in cells),
        ))

    job = Job(
        input_file=file_name,
        map_fn=_map_cell_pair,
        reduce_fn=_reduce_farthest,
        splitter=lambda _fs, _job: splits,
        name=f"farthest-spatial({file_name})",
    )
    result = runner.run(job)
    answer = result.output[0] if result.output else None
    return OperationResult(answer=answer, jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def plan_farthest_pair(runner: JobRunner, file_name: str) -> PlanNode:
    """EXPLAIN plan for the farthest-pair operation."""
    from repro.operations.skyline import est_summary_size

    gindex = global_index_of(runner.fs, file_name)
    op_name = f"FarthestPair({file_name})"
    if gindex is None:
        entry = runner.fs.get(file_name)
        return plan_full_scan(
            runner,
            file_name,
            op_name,
            f"job:farthest-hadoop({file_name})",
            map_desc="per-block local hull",
            reduce_desc="rotating calipers on hull of hulls",
            shuffle_per_block=est_summary_size(
                entry.num_records // max(1, entry.num_blocks)
            ),
        )

    cells = {c.cell_id: c for c in gindex}
    nonempty = sum(1 for c in gindex if c.num_records > 0)
    pairs = select_cell_pairs(gindex)
    pairs_total = nonempty * (nonempty + 1) // 2
    root = PlanNode(
        op_name,
        kind="operation",
        detail={"strategy": "indexed", "technique": gindex.technique},
        estimated={"rounds": 1},
    )
    root.add(
        PlanNode(
            "CellPairFilter",
            kind="filter",
            detail={"filter": "upper-bound < greatest lower bound"},
            estimated={
                "pairs_total": pairs_total,
                "pairs_scanned": len(pairs),
                "pairs_pruned": pairs_total - len(pairs),
            },
        )
    )
    records_in = [
        sum(cells[c].num_records for c in dict.fromkeys(pair)) for pair in pairs
    ]
    root.add(
        PlanNode(
            f"job:farthest-spatial({file_name})",
            kind="job",
            detail={
                "map": "hull + calipers per cell pair",
                "reduce": "max over pair candidates",
            },
            estimated={
                "blocks_read": len(pairs),
                "records_read": sum(records_in),
                "shuffle_records": len(pairs),
                "cost": estimate_job_cost(
                    runner.cluster,
                    records_in,
                    reduce_records_in=[len(pairs)] if pairs else [],
                    shuffle_records=len(pairs),
                ),
            },
        )
    )
    return root
