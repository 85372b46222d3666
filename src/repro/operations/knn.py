"""k-nearest-neighbour query.

The Hadoop variant scans the whole file: every map task ranks its block
and one reducer merges the blocks' top-k. The SpatialHadoop variant reads
only the partition containing the query point, then runs the
*correctness check*: if the circle through the k-th answer spills over
the partition boundary, a second round processes the other partitions
the circle reaches. That round carries round 1's k-th squared distance
as its ``bound``, so a partition sends back only rows that can still
make the answer. The loop provably terminates and in practice takes one
round for most queries — exactly the behaviour experiment E3 records.

Both variants answer in row numbers: a map task writes one
``(block, rows, dsq, distances)`` row set per block — its top-k ranked
by ``(squared distance, row)``, with true distances on those rows only —
and the merge is a stable sort by squared distance, earlier sets first.
Records are thawed for the final k only.
"""

from __future__ import annotations

import math
from typing import List, Tuple

import numpy as np

from repro.core.result import OperationResult
from repro.core.reader import local_index_of
from repro.core.splitter import global_index_of, spatial_splitter
from repro.geometry import Point
from repro.geometry import vectorized
from repro.index.rtree import block_columns
from repro.mapreduce import Counter, Job, JobResult, JobRunner
from repro.mapreduce.columnar import _phase
from repro.observe.plan import PlanNode, estimate_job_cost

#: kNN answers are (distance, record) pairs sorted by distance.
Neighbors = List[Tuple[float, object]]

#: A ranked answer in row numbers: ``(blocks, rows, dsq, distances)``.
_EMPTY = (np.empty(0, np.intp), np.empty(0, np.intp), np.empty(0), [])


def _block_topk(block, ctx):
    """The block's top-k within the config's ``bound`` as one row set."""
    query, k = ctx.config["query"], ctx.config["k"]
    bound = ctx.config.get("bound", math.inf)
    local = local_index_of(ctx) if ctx.config.get("use_local_index") else None
    if local is not None:
        found = local.nearest(query, k, bound)
    else:
        columns = block_columns(block)
        with _phase("kernel"):
            found = vectorized.nearest_rows(columns, query.x, query.y, k,
                                            bound)
    return (ctx.split.block_index, *found)


def _merge(answer, found, k: int):
    """The ``k`` nearest of ``answer`` and the row sets ``found``: a
    stable sort by squared distance, so earlier rows win ties."""
    parts = [answer] + [
        (np.full(len(rows), block), rows, dsq, distances)
        for block, rows, dsq, distances in found
    ]
    parts = [part for part in parts if len(part[1])]
    if len(parts) < 2:  # one ranked set of at most k rows is the answer
        return parts[0] if parts else _EMPTY
    blocks, rows, dsq = (
        np.concatenate([part[c] for part in parts]) for c in range(3)
    )
    distances = [d for part in parts for d in part[3]]
    top = np.argsort(dsq, kind="stable")[:k]
    picked = [distances[i] for i in top.tolist()]
    return blocks[top], rows[top], dsq[top], picked


def _thaw(runner: JobRunner, file_name: str, answer) -> Neighbors:
    """The answer's ``(distance, record)`` pairs, records read from the
    file's own blocks."""
    blocks = runner.fs.get(file_name).blocks
    return [
        (distance, blocks[b].records[row])
        for b, row, distance in zip(
            answer[0].tolist(), answer[1].tolist(), answer[3]
        )
    ]


def _knn_scan_map(_key, block, ctx):
    """Per-block top-k (module-level: picklable)."""
    ctx.emit(1, _block_topk(block, ctx))


def _knn_merge_reduce(_key, found, ctx):
    """Merge the blocks' top-k (module-level: picklable)."""
    ctx.write_output(_merge(_EMPTY, found, ctx.config["k"]))


def _knn_indexed_map(_cell, block, ctx):
    """Per-partition top-k via the local index (module-level: picklable)."""
    ctx.write_output(_block_topk(block, ctx))


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
    merged = result.output[0] if result.output else _EMPTY
    return OperationResult(
        answer=_thaw(runner, file_name, merged), jobs=[result], system="hadoop"
    )


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

    def run_round(round_index: int, cell_ids, bound: float) -> JobResult:
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
                config={
                    "query": query, "k": k, "bound": bound,
                    "use_local_index": use_local_index,
                },
                name=f"knn-spatial({file_name})",
            )
            result = runner.run(job)
            round_span.set(
                "candidates", sum(len(found[1]) for found in result.output)
            )
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
        jobs = [run_round(1, processed, math.inf)]
        answer = _merge(_EMPTY, jobs[0].output, k)

        # Correctness rounds: grow until the k-th circle stays inside the
        # processed region, reading only rows inside it. With fewer than
        # k answers the radius is unbounded: every non-empty cell counts.
        while True:
            bound = float(answer[2][-1]) if len(answer[2]) >= k else math.inf
            needed = {
                c.cell_id
                for c in gindex
                if c.mbr.min_distance_sq_point(query) <= bound
                and (bound < math.inf or c.num_records > 0)
            }
            missing = needed - processed
            if not missing:
                break
            processed |= missing
            jobs.append(run_round(len(jobs) + 1, missing, bound))
            answer = _merge(answer, jobs[-1].output, k)
        op_span.set("rounds", len(jobs))
        op_span.set(
            "partitions_pruned",
            sum(j.counters.get(Counter.BLOCKS_PRUNED) for j in jobs),
        )
    return OperationResult(answer=_thaw(runner, file_name, answer), jobs=jobs)


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
        shuffle = entry.num_blocks  # one top-k row set per block
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
