"""kNN join: for every record of R, its k nearest neighbours in S.

The kNN-join literature the paper cites (Lu et al., Zhang et al.) works in
two MapReduce rounds; with SpatialHadoop's index the same structure needs
one round plus a driver-side correctness pass:

1. both inputs are spatially indexed (any technique);
2. one map task per R partition answers kNN for its records against the
   local index of every S partition within reach, visiting S partitions
   in increasing MBR-distance order and stopping once the k-th found
   distance is below the next partition's distance — the per-record
   generalisation of the single-query correctness check.

The simulator version keeps the quantity that matters (how many S blocks
each R partition touches) as counters.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, List, Tuple

from repro.core.result import OperationResult
from repro.core.reader import spatial_reader
from repro.core.splitter import global_index_of, spatial_splitter
from repro.index.rtree import RTree
from repro.mapreduce import Job, JobRunner
from repro.observe.plan import PlanNode, estimate_job_cost
from repro.operations.common import as_point

#: One join result row: (r_record, [(distance, s_record), ...] ascending).
KnnJoinRow = Tuple[Any, List[Tuple[float, Any]]]


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

    right_entry = fs.get(right_file)
    right_blocks = {b.metadata["cell_id"]: b for b in right_entry.blocks}
    right_cells = sorted(right_index, key=lambda c: c.cell_id)

    def map_fn(cell, records, ctx):
        kk: int = ctx.config["k"]
        blocks_touched = set()
        block_reads = 0
        for record in records:
            query = as_point(record)
            # Best-first over S partitions by MBR distance; stop once the
            # k-th found distance is below the next partition's distance.
            order = sorted(
                right_cells,
                key=lambda c: (c.mbr.min_distance_point(query), c.cell_id),
            )
            best: List[Tuple[float, int, Any]] = []  # max-heap by -distance
            counter = 0
            for s_cell in order:
                cell_dist = s_cell.mbr.min_distance_point(query)
                if len(best) >= kk and cell_dist > -best[0][0]:
                    break
                blocks_touched.add(s_cell.cell_id)
                block_reads += 1
                block = right_blocks[s_cell.cell_id]
                local: RTree = block.metadata.get("local_index")
                if local is None:  # index built without local indexes
                    local = RTree.from_shapes(block.records)
                for d, row in local.knn(query, kk):
                    found = block.records[row]
                    if len(best) < kk:
                        heapq.heappush(best, (-d, counter, found))
                        counter += 1
                    elif d < -best[0][0]:
                        heapq.heappushpop(best, (-d, counter, found))
                        counter += 1
            neighbors = sorted((-nd, rec) for nd, _, rec in best)
            ctx.write_output((record, neighbors))
        ctx.counters.increment("KNN_JOIN_S_BLOCKS", len(blocks_touched))
        ctx.counters.increment("KNN_JOIN_S_BLOCK_READS", block_reads)

    job = Job(
        input_file=left_file,
        map_fn=map_fn,
        splitter=spatial_splitter(),
        reader=spatial_reader,
        config={"k": k},
        name=f"knn-join({left_file},{right_file})",
    )
    result = runner.run(job)
    return OperationResult(answer=result.output, jobs=[result])


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
    fs = runner.fs
    s_records = fs.read_records(right_file)

    def map_fn(_key, records, ctx):
        ss = ctx.config["s_records"]
        kk = ctx.config["k"]
        for record in records:
            query = as_point(record)
            scored = heapq.nsmallest(
                kk,
                (
                    (shape.mbr.min_distance_point(query), i)
                    for i, shape in enumerate(ss)
                ),
            )
            ctx.write_output(
                (record, [(d, ss[i]) for d, i in scored])
            )

    job = Job(
        input_file=left_file,
        map_fn=map_fn,
        config={"s_records": s_records, "k": k},
        name=f"knn-join-hadoop({left_file},{right_file})",
    )
    result = runner.run(job)
    return OperationResult(answer=result.output, jobs=[result], system="hadoop")


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
