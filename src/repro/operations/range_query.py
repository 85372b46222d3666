"""Range query: all records intersecting a query rectangle.

The Hadoop variant scans every block. The SpatialHadoop variant prunes
non-overlapping partitions with the SpatialFileSplitter, answers each
surviving partition with one mask over its MBR columns, and applies the
*reference point* duplicate-avoidance technique when the index
replicates records across disjoint partitions.
"""

from __future__ import annotations

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of, overlapping_filter, spatial_splitter
from repro.geometry import Rectangle, vectorized
from repro.index.rtree import block_columns
from repro.mapreduce import Counter, Job, JobRunner
from repro.mapreduce.columnar import _phase
from repro.observe.plan import PlanNode, estimate_job_cost


def matching_rows(block, ctx, owner=None):
    """Rows of a block the query reports, ascending.

    One mask kernel over the block's MBR columns (:func:`block_columns`:
    the payload's own, or derived once per block from the records): a
    row matches when its MBR intersects the window (closed). Given
    ``owner``, the cell of a replicating index, the partition must also
    own the row's *reference point* — the bottom-left corner of the
    MBR's intersection with the window — in the half-open cell, so a
    record replicated to several disjoint partitions is reported exactly
    once, with no communication between them. Partitioners expand the
    space past the global maximum, so the reference point always falls
    inside some cell's half-open range.
    """
    q = ctx.config["query"]
    cols = block_columns(block)
    with _phase("kernel"):
        if owner is None:
            return vectorized.rects_intersect(*cols, q)
        return vectorized.rects_intersect_owned(*cols, q, owner)


def _write_rows(block, rows, ctx) -> None:
    """Write ``rows`` of ``block`` to the job output; thaws the block's
    records only when there is a row to write."""
    if len(rows):
        records = block.records
        for i in rows:
            ctx.write_output(records[i])


def _scan_map(_key, block, ctx):
    """Map task of the full-scan range query (module-level: picklable)."""
    ctx.log("debug", "block-scanned", records=len(block))
    _write_rows(block, matching_rows(block, ctx), ctx)


def _indexed_map(cell, block, ctx):
    """Map task of the indexed range query (module-level: picklable)."""
    ctx.log("debug", "partition-scanned", records=len(block))
    owner = cell if ctx.config["dedup"] else None
    _write_rows(block, matching_rows(block, ctx, owner), ctx)


def range_query_hadoop(
    runner: JobRunner, file_name: str, query: Rectangle
) -> OperationResult:
    """Full-scan range query on a heap (or indexed) file."""
    with runner.recorder.tracer.span(
        f"op:range-hadoop({file_name})", kind="operation", file=file_name
    ) as op_span:
        job = Job(
            input_file=file_name,
            map_fn=_scan_map,
            config={"query": query},
            name=f"range-hadoop({file_name})",
        )
        result = runner.run(job)
        op_span.set("matches", len(result.output))
    return OperationResult(answer=result.output, jobs=[result], system="hadoop")


def range_query_spatial(
    runner: JobRunner,
    file_name: str,
    query: Rectangle,
    prune: bool = True,
) -> OperationResult:
    """Indexed range query with partition pruning and duplicate avoidance.

    ``prune=False`` disables the filter step (the global-index ablation).
    """
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    dedup = gindex.disjoint

    with runner.recorder.tracer.span(
        f"op:range-spatial({file_name})",
        kind="operation",
        file=file_name,
        pruning=prune,
        dedup=dedup,
    ) as op_span:
        job = Job(
            input_file=file_name,
            map_fn=_indexed_map,
            splitter=spatial_splitter(
                overlapping_filter(query) if prune else None
            ),
            config={
                "query": query,
                "dedup": dedup,
            },
            name=f"range-spatial({file_name})",
        )
        result = runner.run(job)
        op_span.set("matches", len(result.output))
        op_span.set(
            "partitions_pruned", result.counters.get(Counter.BLOCKS_PRUNED)
        )
    return OperationResult(answer=result.output, jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def estimated_matches(cells, query: Rectangle) -> int:
    """Uniform-density estimate of matching records in ``cells``.

    Each cell contributes records proportionally to how much of its
    boundary rectangle the query window covers — the textbook uniformity
    assumption, which is also what makes estimate-vs-actual error a
    useful skew signal in ANALYZE output.
    """
    total = 0.0
    for cell in cells:
        inter = cell.mbr.intersection(query)
        if inter is None:
            continue
        area = cell.mbr.area
        fraction = (inter.area / area) if area > 0 else 1.0
        total += cell.num_records * fraction
    return round(total)


def plan_range_query(
    runner: JobRunner,
    file_name: str,
    query: Rectangle,
    prune: bool = True,
) -> PlanNode:
    """EXPLAIN plan for a range query (never reads record data)."""
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        entry = runner.fs.get(file_name)
        root = PlanNode(
            f"RangeQuery({file_name})",
            kind="operation",
            detail={"strategy": "full-scan", "window": str(query)},
            estimated={"rounds": 1},
        )
        root.add(
            PlanNode(
                f"job:range-hadoop({file_name})",
                kind="job",
                detail={"map": "scan every block", "reduce": "none"},
                estimated={
                    "blocks_read": entry.num_blocks,
                    "records_read": entry.num_records,
                    "cost": estimate_job_cost(
                        runner.cluster,
                        [len(b) for b in entry.blocks],
                    ),
                },
            )
        )
        return root

    selected = gindex.overlapping(query) if prune else list(gindex)
    dedup = gindex.disjoint
    matches = estimated_matches(selected, query)
    root = PlanNode(
        f"RangeQuery({file_name})",
        kind="operation",
        detail={
            "strategy": "indexed",
            "window": str(query),
            "technique": gindex.technique,
            "dedup": dedup,
        },
        estimated={"rounds": 1, "matches": matches},
    )
    root.add(
        PlanNode(
            "GlobalIndexFilter",
            kind="filter",
            detail={"filter": "overlapping" if prune else "every-partition"},
            estimated={
                "partitions_total": len(gindex),
                "partitions_scanned": len(selected),
                "partitions_pruned": len(gindex) - len(selected),
            },
        )
    )
    records_in = [c.num_records for c in selected]
    root.add(
        PlanNode(
            f"job:range-spatial({file_name})",
            kind="job",
            detail={
                "map": "column mask",
                "reduce": "none",
                "dedup": "reference-point" if dedup else "off",
            },
            estimated={
                "blocks_read": len(selected),
                "records_read": sum(records_in),
                "matches": matches,
                "cost": estimate_job_cost(
                    runner.cluster,
                    records_in,
                    [estimated_matches([c], query) for c in selected],
                ),
            },
        )
    )
    return root
