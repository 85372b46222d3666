"""Aggregate range query: COUNT of records in a window.

The aggregate variant of the range query matters because it can use the
combiner: each map task emits one partial count instead of the matching
records, so the shuffle is O(blocks) regardless of selectivity — the
cheapest possible spatial query and a common building block (heat maps,
selectivity estimation for query planning).
"""

from __future__ import annotations

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of, spatial_splitter
from repro.geometry import Rectangle
from repro.mapreduce import Counter, Job, JobRunner
from repro.observe.plan import PlanNode, estimate_job_cost
from repro.operations.range_query import estimated_matches, matching_rows


def _count_scan_map(_key, block, ctx):
    """Per-block matching-record count (module-level: picklable)."""
    ctx.emit(1, len(matching_rows(block, ctx)))


def _count_reduce(_key, partials, ctx):
    """Sum the per-task partial counts (module-level: picklable)."""
    ctx.emit(1, sum(partials))


def _count_indexed_map(cell, block, ctx):
    """Per-partition count with dedup ownership (module-level: picklable)."""
    owner = cell if ctx.config["dedup"] else None
    ctx.emit(1, len(matching_rows(block, ctx, owner)))


def range_count_hadoop(
    runner: JobRunner, file_name: str, query: Rectangle
) -> OperationResult:
    """Full-scan COUNT with a combiner-style single partial per block."""
    job = Job(
        input_file=file_name,
        map_fn=_count_scan_map,
        reduce_fn=_count_reduce,
        config={"query": query},
        name=f"range-count-hadoop({file_name})",
    )
    result = runner.run(job)
    count = result.output[0] if result.output else 0
    return OperationResult(answer=count, jobs=[result], system="hadoop")


def range_count_spatial(
    runner: JobRunner, file_name: str, query: Rectangle
) -> OperationResult:
    """Indexed COUNT with a fast path for fully-covered partitions.

    A partition whose boundary lies entirely inside the query window
    contributes *all* its records (minus replicas it does not own): for
    non-replicated indexes its count comes straight from the global index
    without reading the block at all — the aggregate analogue of the
    filter step.
    """
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    dedup = gindex.disjoint

    covered = 0
    boundary_cells = set()
    for cell in gindex.overlapping(query):
        if not dedup and query.contains_rect(cell.mbr):
            covered += cell.num_records  # free: counted from the index
        else:
            boundary_cells.add(cell.cell_id)

    with runner.recorder.tracer.span(
        f"op:range-count({file_name})",
        kind="operation",
        file=file_name,
        covered_records=covered,
    ) as op_span:
        job = Job(
            input_file=file_name,
            map_fn=_count_indexed_map,
            reduce_fn=_count_reduce,
            splitter=spatial_splitter(
                lambda gi: [c for c in gi if c.cell_id in boundary_cells]
            ),
            config={"query": query, "dedup": dedup},
            name=f"range-count-spatial({file_name})",
        )
        result = runner.run(job)
        partial = result.output[0] if result.output else 0
        op_span.set("count", covered + partial)
        op_span.set(
            "partitions_pruned", result.counters.get(Counter.BLOCKS_PRUNED)
        )
    return OperationResult(answer=covered + partial, jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def plan_range_count(
    runner: JobRunner, file_name: str, query: Rectangle
) -> PlanNode:
    """EXPLAIN plan for a COUNT query, including the covered fast path."""
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        entry = runner.fs.get(file_name)
        root = PlanNode(
            f"RangeCount({file_name})",
            kind="operation",
            detail={"strategy": "full-scan", "window": str(query)},
            estimated={"rounds": 1},
        )
        root.add(
            PlanNode(
                f"job:range-count-hadoop({file_name})",
                kind="job",
                detail={"map": "per-block count", "reduce": "sum partials"},
                estimated={
                    "blocks_read": entry.num_blocks,
                    "records_read": entry.num_records,
                    "shuffle_records": entry.num_blocks,
                    "cost": estimate_job_cost(
                        runner.cluster,
                        [len(b) for b in entry.blocks],
                        reduce_records_in=[entry.num_blocks],
                        shuffle_records=entry.num_blocks,
                    ),
                },
            )
        )
        return root

    dedup = gindex.disjoint
    overlapping = gindex.overlapping(query)
    covered = [
        c for c in overlapping if not dedup and query.contains_rect(c.mbr)
    ]
    covered_ids = {c.cell_id for c in covered}
    boundary = [c for c in overlapping if c.cell_id not in covered_ids]
    covered_records = sum(c.num_records for c in covered)
    est_count = covered_records + estimated_matches(boundary, query)
    root = PlanNode(
        f"RangeCount({file_name})",
        kind="operation",
        detail={
            "strategy": "indexed",
            "window": str(query),
            "technique": gindex.technique,
        },
        estimated={"rounds": 1, "count": est_count},
    )
    root.add(
        PlanNode(
            "GlobalIndexFilter",
            kind="filter",
            detail={"filter": "overlapping + covered fast path"},
            estimated={
                "partitions_total": len(gindex),
                "partitions_scanned": len(boundary),
                "partitions_pruned": len(gindex) - len(boundary),
                "partitions_covered": len(covered),
                "covered_records": covered_records,
            },
        )
    )
    records_in = [c.num_records for c in boundary]
    root.add(
        PlanNode(
            f"job:range-count-spatial({file_name})",
            kind="job",
            detail={"map": "per-partition count", "reduce": "sum partials"},
            estimated={
                "blocks_read": len(boundary),
                "records_read": sum(records_in),
                "shuffle_records": len(boundary),
                "cost": estimate_job_cost(
                    runner.cluster,
                    records_in,
                    reduce_records_in=[len(boundary)] if boundary else [],
                    shuffle_records=len(boundary),
                ),
            },
        )
    )
    return root
