"""kNN join: for every record of R, its k nearest neighbours in S.

The kNN-join literature the paper cites (Lu et al., Zhang et al.) works in
two MapReduce rounds; with SpatialHadoop's index the same structure needs
one round plus a driver-side correctness pass:

1. both inputs are spatially indexed (any technique);
2. one map task per R partition answers kNN for all its rows in one
   batch kernel (:func:`repro.geometry.vectorized.knn_rows`) over the
   MBR columns of the S partitions within reach: every row visits S
   partitions in increasing MBR-distance order and stops once its k-th
   found distance is below the next partition's distance — the per-record
   generalisation of the single-query correctness check.

The simulator version keeps the quantity that matters (how many S blocks
each R partition touches) as counters.
"""

from __future__ import annotations

import math
from typing import Any, List, Tuple

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of, spatial_splitter
from repro.geometry import Rectangle, vectorized
from repro.index.rtree import block_columns, mbr_columns
from repro.mapreduce import Job, JobResult, JobRunner
from repro.observe.plan import PlanNode, estimate_job_cost
from repro.operations.common import point_columns

#: One join result row: (r_record, [(distance, s_record), ...] ascending).
KnnJoinRow = Tuple[Any, List[Tuple[float, Any]]]


def _knn_join_map(_cell, block, ctx):
    """kNN of every row of one R block (module-level: picklable).

    Emits ``(R block, rows, distances)``: per R row, in block order, the
    S row (numbered across S's cells by ascending cell id) and distance
    of each neighbour, nearest first.
    """
    rows, distances, visits = vectorized.knn_rows(
        *point_columns(block),
        ctx.config["s_cell_mbrs"],
        ctx.config["s_columns"],
        ctx.config["k"],
    )
    ctx.write_output((ctx.split.block_index, rows, distances))
    ctx.counters.increment("KNN_JOIN_S_BLOCKS", sum(1 for v in visits if v))
    ctx.counters.increment("KNN_JOIN_S_BLOCK_READS", sum(visits))


def _run_knn_join(
    runner: JobRunner, name: str, left_file: str, k: int,
    s_cells: List[Any], s_columns: List[Any], s_records: List[Any],
    splitter=None,
) -> Tuple[List[KnnJoinRow], JobResult]:
    """One kNN-join job of ``left_file`` against S, and its thawed rows.

    ``s_cells[c]`` bounds the rows whose MBR columns are ``s_columns[c]``;
    ``s_records`` lists S's records in the same order, cells end to end.
    Every map task probes S, so S rides in the job config as columns.
    """
    result = runner.run(Job(
        input_file=left_file,
        map_fn=_knn_join_map,
        splitter=splitter,
        config={
            "k": k,
            "s_cell_mbrs": mbr_columns(s_cells),
            "s_columns": s_columns,
        },
        name=name,
    ))
    r_blocks = runner.fs.get(left_file).blocks
    answer: List[KnnJoinRow] = [
        (record, list(zip(found, map(s_records.__getitem__, rows))))
        for r_block, block_rows, block_distances in result.output
        for record, rows, found in zip(
            r_blocks[r_block].records, block_rows, block_distances
        )
    ]
    return answer, result


def knn_join_spatial(
    runner: JobRunner,
    left_file: str,
    right_file: str,
    k: int,
) -> OperationResult:
    """For each record of ``left_file``, the k nearest in ``right_file``.

    Both files must be spatially indexed. Left records must be points
    (bare or Feature-wrapped); right records may be any shapes (distances
    use MBR distance, exact for points).
    """
    if k <= 0:
        raise ValueError("k must be positive")
    fs = runner.fs
    left_index = global_index_of(fs, left_file)
    right_index = global_index_of(fs, right_file)
    if left_index is None or right_index is None:
        raise ValueError("knn join requires both inputs to be indexed")

    # The driver reads S outside any split, hence through the
    # checksummed path; cells go by ascending cell id.
    runner.verify_driver_read(right_file)
    s_blocks = sorted(
        fs.get(right_file).blocks, key=lambda b: b.metadata["cell_id"]
    )
    answer, result = _run_knn_join(
        runner, f"knn-join({left_file},{right_file})", left_file, k,
        [right_index.cell(b.metadata["cell_id"]) for b in s_blocks],
        [block_columns(b) for b in s_blocks],
        [record for block in s_blocks for record in block.records],
        splitter=spatial_splitter(),
    )
    return OperationResult(answer=answer, jobs=[result])


def knn_join_hadoop(
    runner: JobRunner,
    left_file: str,
    right_file: str,
    k: int,
) -> OperationResult:
    """Baseline block-nested kNN join over heap files.

    Every (R block, whole S) pairing is evaluated: one map task per R
    block scans the full S file. This is the quadratic baseline the
    indexed join is compared against.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    s_records = runner.fs.read_records(right_file)
    # The whole of S is one cell: with nothing to choose between, its
    # boundary is never consulted.
    answer, result = _run_knn_join(
        runner, f"knn-join-hadoop({left_file},{right_file})", left_file, k,
        [Rectangle(0.0, 0.0, 0.0, 0.0)], [mbr_columns(s_records)], s_records,
    )
    return OperationResult(answer=answer, jobs=[result], system="hadoop")


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def plan_knn_join(
    runner: JobRunner, left_file: str, right_file: str, k: int
) -> PlanNode:
    """EXPLAIN plan for the kNN join."""
    fs = runner.fs
    left_index = global_index_of(fs, left_file)
    right_index = global_index_of(fs, right_file)
    name = f"KnnJoin({left_file},{right_file})"
    if left_index is None or right_index is None:
        left_entry = fs.get(left_file)
        right_entry = fs.get(right_file)
        root = PlanNode(
            name,
            kind="operation",
            detail={"strategy": "block-nested full-scan", "k": k},
            estimated={"rounds": 1},
        )
        root.add(
            PlanNode(
                f"job:knn-join-hadoop({left_file},{right_file})",
                kind="job",
                detail={"map": "R block x whole S", "reduce": "none"},
                estimated={
                    "blocks_read": left_entry.num_blocks,
                    "records_read": left_entry.num_records,
                    "s_block_reads": left_entry.num_blocks
                    * right_entry.num_blocks,
                    "cost": estimate_job_cost(
                        runner.cluster,
                        [len(b) for b in left_entry.blocks],
                    ),
                },
            )
        )
        return root

    # Expected k-th circle radius from S's global density; each R record
    # touches the S partitions within that radius of its own partition.
    s_total = right_index.total_records
    s_area = right_index.mbr.area if len(right_index) else 0.0
    radius = (
        math.sqrt(k * s_area / (math.pi * s_total))
        if s_total and s_area > 0
        else 0.0
    )
    s_cells = list(right_index)
    s_touch = 0
    for cell in left_index:
        if cell.num_records == 0:
            continue
        reachable = sum(
            1
            for s in s_cells
            if s.num_records > 0
            and s.mbr.min_distance_rect(cell.mbr) <= radius
        )
        s_touch += max(1, reachable)
    root = PlanNode(
        name,
        kind="operation",
        detail={
            "strategy": "indexed",
            "k": k,
            "technique": f"{left_index.technique}/{right_index.technique}",
        },
        estimated={"rounds": 1, "k_radius": radius},
    )
    records_in = [c.num_records for c in left_index]
    root.add(
        PlanNode(
            f"job:knn-join({left_file},{right_file})",
            kind="job",
            detail={
                "map": "best-first over S partitions per R record",
                "reduce": "none",
            },
            estimated={
                "blocks_read": len(left_index),
                "records_read": sum(records_in),
                "s_blocks_touched": s_touch,
                "cost": estimate_job_cost(runner.cluster, records_in),
            },
        )
    )
    return root
