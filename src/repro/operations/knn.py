"""k-nearest-neighbour query.

The Hadoop variant scans the whole file: every map task computes its local
top-k and one reducer merges them. The SpatialHadoop variant reads only the
partition containing the query point, then runs the *correctness check*:
if the circle through the k-th answer spills over the partition boundary,
a second round processes the other partitions the circle overlaps. The loop
provably terminates and in practice takes one round for most queries —
exactly the behaviour experiment E3 records.
"""

from __future__ import annotations

import heapq
import math
from typing import List, Tuple

from repro.core.result import OperationResult
from repro.core.reader import local_index_of, spatial_reader
from repro.core.splitter import global_index_of, spatial_splitter
from repro.geometry import Point, Rectangle
from repro.geometry import vectorized
from repro.index.partitioners.base import shape_mbr
from repro.mapreduce import Counter, Job, JobRunner
from repro.mapreduce.columnar import payload_of
from repro.observe.plan import PlanNode, estimate_job_cost

#: kNN answers are (distance, record) pairs sorted by distance.
Neighbors = List[Tuple[float, object]]


def _local_topk(records, query: Point, k: int, payload=None) -> Neighbors:
    """Top-k of a record list by MBR distance (exact for points).

    Candidates are ranked by ``(squared distance, record index)`` —
    squared distances round identically in the scalar loop and the batch
    kernels, and the index tie-break makes the selected set independent
    of execution mode. The distances in the returned pairs are true
    distances, recomputed with ``math.hypot`` on the winners only.
    """
    if payload is not None:
        top = vectorized.topk_by_distance(payload.distance_sq_to(query), k)
    else:
        mbr_of = shape_mbr  # bound to locals: this loop dominates kNN scans
        dsq_of = Rectangle.min_distance_sq_point
        dsq = [dsq_of(mbr_of(r), query) for r in records]
        top = heapq.nsmallest(k, range(len(records)), key=lambda i: (dsq[i], i))
    return [
        (shape_mbr(records[i]).min_distance_point(query), records[i])
        for i in top
    ]


def _merge_topk(partials: List[Neighbors], k: int) -> Neighbors:
    merged: Neighbors = []
    for partial in partials:
        merged.extend(partial)
    merged.sort(key=lambda pair: pair[0])
    return merged[:k]


def _knn_scan_map(_key, records, ctx):
    """Per-block local top-k (module-level: picklable)."""
    payload = payload_of(ctx.split.block, len(records))
    top = _local_topk(records, ctx.config["query"], ctx.config["k"], payload)
    for pair in top:
        ctx.emit(1, pair)


def _knn_merge_reduce(_key, pairs, ctx):
    """Merge the local top-k lists (module-level: picklable)."""
    for pair in _merge_topk([pairs], ctx.config["k"]):
        ctx.emit(1, pair)


def _knn_indexed_map(_cell, records, ctx):
    """Per-partition top-k via the local index (module-level: picklable)."""
    local = local_index_of(ctx) if ctx.config["use_local_index"] else None
    if local is not None:
        top = [
            (d, records[row])
            for d, row in local.knn(ctx.config["query"], ctx.config["k"])
        ]
    else:
        payload = payload_of(ctx.split.block, len(records))
        top = _local_topk(
            records, ctx.config["query"], ctx.config["k"], payload
        )
    for pair in top:
        ctx.write_output(pair)


def knn_hadoop(
    runner: JobRunner, file_name: str, query: Point, k: int
) -> OperationResult:
    """Full-scan kNN: local top-k per block, merged by one reducer."""
    if k <= 0:
        raise ValueError("k must be positive")

    job = Job(
        input_file=file_name,
        map_fn=_knn_scan_map,
        reduce_fn=_knn_merge_reduce,
        config={"query": query, "k": k},
        name=f"knn-hadoop({file_name})",
    )
    result = runner.run(job)
    return OperationResult(answer=result.output, jobs=[result], system="hadoop")


def knn_spatial(
    runner: JobRunner,
    file_name: str,
    query: Point,
    k: int,
    use_local_index: bool = True,
) -> OperationResult:
    """Indexed kNN with the correctness-check round protocol."""
    if k <= 0:
        raise ValueError("k must be positive")
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")

    tracer = runner.recorder.tracer

    def run_round(round_index: int, cell_ids) -> "JobResult":  # noqa: F821
        with tracer.span(
            f"knn:round-{round_index}",
            kind="round",
            round=round_index,
            cells=sorted(cell_ids),
        ) as round_span:
            job = Job(
                input_file=file_name,
                map_fn=_knn_indexed_map,
                splitter=spatial_splitter(
                    lambda gi: [c for c in gi if c.cell_id in cell_ids]
                ),
                reader=spatial_reader,
                config={
                    "query": query, "k": k, "use_local_index": use_local_index
                },
                name=f"knn-spatial({file_name})",
            )
            result = runner.run(job)
            round_span.set("candidates", len(result.output))
        runner.round_boundary("knn-spatial", round_index)
        return result

    with tracer.span(
        f"op:knn-spatial({file_name})", kind="operation", file=file_name, k=k
    ) as op_span:
        # Round 1: the partition containing (or nearest to) the query point.
        first = gindex.nearest_cell(query)
        if first is None:
            op_span.set("rounds", 0)
            return OperationResult(answer=[], jobs=[])
        processed = {first.cell_id}
        jobs = [run_round(1, processed)]
        answer = _merge_topk([jobs[0].output], k)

        # Correctness rounds: grow until the k-th circle stays inside the
        # processed region. With fewer than k answers the radius is
        # unbounded.
        while True:
            if len(answer) >= k:
                radius = answer[-1][0]
                circle_mbr = Rectangle(
                    query.x - radius, query.y - radius,
                    query.x + radius, query.y + radius,
                )
                needed = {
                    c.cell_id
                    for c in gindex
                    if c.mbr.min_distance_point(query) <= radius
                    and c.mbr.intersects(circle_mbr)
                }
            else:
                needed = {c.cell_id for c in gindex if c.num_records > 0}
            missing = needed - processed
            if not missing:
                break
            processed |= missing
            round_result = run_round(len(jobs) + 1, missing)
            jobs.append(round_result)
            answer = _merge_topk([answer, round_result.output], k)
        op_span.set("rounds", len(jobs))
        op_span.set(
            "partitions_pruned",
            sum(j.counters.get(Counter.BLOCKS_PRUNED) for j in jobs),
        )
    return OperationResult(answer=answer, jobs=jobs)


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def estimate_knn_radius(cell, k: int) -> float:
    """Expected k-th neighbour distance under uniform density.

    With ``n`` points uniformly spread over the cell's area ``A``, the
    circle holding the k nearest neighbours has expected area
    ``k * A / n``, hence radius ``sqrt(k * A / (pi * n))``.
    """
    if cell.num_records <= 0 or cell.mbr.area <= 0:
        return math.inf
    return math.sqrt(k * cell.mbr.area / (math.pi * cell.num_records))


def plan_knn(
    runner: JobRunner, file_name: str, query: Point, k: int
) -> PlanNode:
    """EXPLAIN plan for kNN, including the predicted round protocol."""
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        entry = runner.fs.get(file_name)
        root = PlanNode(
            f"Knn({file_name})",
            kind="operation",
            detail={"strategy": "full-scan", "point": str(query), "k": k},
            estimated={"rounds": 1},
        )
        shuffle = k * entry.num_blocks
        root.add(
            PlanNode(
                f"job:knn-hadoop({file_name})",
                kind="job",
                detail={"map": "per-block top-k", "reduce": "merge top-k"},
                estimated={
                    "blocks_read": entry.num_blocks,
                    "records_read": entry.num_records,
                    "shuffle_records": shuffle,
                    "cost": estimate_job_cost(
                        runner.cluster,
                        [len(b) for b in entry.blocks],
                        reduce_records_in=[shuffle],
                        shuffle_records=shuffle,
                    ),
                },
            )
        )
        return root

    root = PlanNode(
        f"Knn({file_name})",
        kind="operation",
        detail={
            "strategy": "indexed",
            "point": str(query),
            "k": k,
            "technique": gindex.technique,
        },
    )
    first = gindex.nearest_cell(query)
    if first is None:
        root.detail["note"] = "empty index: no rounds needed"
        root.estimated = {"rounds": 0}
        return root

    round1 = root.add(
        PlanNode(
            "knn:round-1",
            kind="round",
            detail={"cells": [first.cell_id], "reason": "nearest partition"},
            estimated={"partitions_scanned": 1},
        )
    )
    round1.add(
        PlanNode(
            f"job:knn-spatial({file_name})",
            kind="job",
            detail={"map": "local-index kNN", "reduce": "none"},
            estimated={
                "blocks_read": 1,
                "records_read": first.num_records,
                "cost": estimate_job_cost(
                    runner.cluster, [first.num_records], [k]
                ),
            },
        )
    )

    # Correctness-check prediction: the k-th circle under uniform density.
    # When it spills past partitions other than the first, a second round
    # must read them; E3 shows one round suffices for most queries.
    radius = estimate_knn_radius(first, k)
    if first.num_records >= k and radius < math.inf:
        extra = [
            c
            for c in gindex
            if c.cell_id != first.cell_id
            and c.num_records > 0
            and c.mbr.min_distance_point(query) <= radius
        ]
    else:
        extra = [
            c
            for c in gindex
            if c.cell_id != first.cell_id and c.num_records > 0
        ]
    root.estimated = {
        "rounds": 1 if not extra else 2,
        "k_radius": radius if radius < math.inf else -1.0,
    }
    if extra:
        round2 = root.add(
            PlanNode(
                "knn:round-2",
                kind="round",
                detail={
                    "cells": sorted(c.cell_id for c in extra),
                    "reason": "k-th circle may spill past round-1 partitions",
                },
                estimated={"partitions_scanned": len(extra)},
            )
        )
        records_in = [c.num_records for c in extra]
        round2.add(
            PlanNode(
                f"job:knn-spatial({file_name})",
                kind="job",
                detail={"map": "local-index kNN", "reduce": "none"},
                estimated={
                    "blocks_read": len(extra),
                    "records_read": sum(records_in),
                    "cost": estimate_job_cost(
                        runner.cluster, records_in, [k] * len(extra)
                    ),
                },
            )
        )
    return root
