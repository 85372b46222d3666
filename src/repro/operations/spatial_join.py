"""Spatial join: all overlapping pairs across two datasets.

Two algorithms, as in the papers:

* **SJMR** (Spatial Join with MapReduce) — the Hadoop baseline for
  non-indexed inputs. A single job repartitions both inputs on a uniform
  grid in the map phase and joins each grid cell's contents in the reduce
  phase with a plane sweep, using the reference-point technique to report
  each pair exactly once.
* **Distributed join (DJ)** — the SpatialHadoop algorithm for two indexed
  files. The driver joins the two *global indexes* to find the overlapping
  partition pairs; one map task per surviving pair joins the two blocks
  locally. Pairs of partitions that do not overlap are never read — that is
  the index's whole advantage, and experiment E4 counts exactly this.
"""

from __future__ import annotations

import math
from typing import Any, List, Optional, Tuple

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of
import numpy as np

from repro.geometry import Rectangle, vectorized
from repro.index.partitioners.grid import GridPartitioner
from repro.index.rtree import block_columns, mbr_columns
from repro.mapreduce import Block, Job, JobRunner
from repro.mapreduce.types import InputSplit
from repro.observe.plan import PlanNode, estimate_job_cost


def _thaw(records: List[Any], rows) -> Any:
    """The records at the given row numbers, lazily."""
    return map(records.__getitem__, rows.tolist())


def _origin_records(blocks: List[Block], origin) -> List[Any]:
    """The records an SJMR origin (``(block, offsets)`` parts) lists."""
    return [
        record
        for block, offsets in origin
        for record in _thaw(blocks[block].records, offsets)
    ]


def plane_sweep_join(left: List[Any], right: List[Any]) -> List[Tuple[Any, Any]]:
    """All (l, r) pairs with intersecting MBRs, ascending by position."""
    li, ri = vectorized.join_rows(mbr_columns(left), mbr_columns(right))
    return list(zip(_thaw(left, li), _thaw(right, ri)))


# ----------------------------------------------------------------------
# SJMR: the Hadoop baseline
# ----------------------------------------------------------------------
def _sjmr_map(_key, block, ctx):
    """SJMR repartition map (module-level: picklable).

    Routes the block's rows to the grid cells they overlap and emits, per
    cell, the rows' offsets and MBR columns — coordinates cross the
    shuffle, records do not. A self-join (both sides the same file) emits
    every part for both sides; otherwise the originating file decides.
    """
    if ctx.config["self_join"]:
        sides = (0, 1)
    else:
        sides = (0,) if ctx.split.file == ctx.config["left"] else (1,)
    cols = block_columns(block)
    g: GridPartitioner = ctx.config["grid"]
    for cell_id, offsets in g.partition_columns(*cols):
        part = (ctx.split.block_index, offsets) + tuple(
            col[offsets] for col in cols
        )
        for side in sides:
            ctx.emit(cell_id, (side,) + part)


def _sjmr_reduce(cell_id, parts, ctx):
    """SJMR per-cell join (module-level: picklable).

    Emits ``(left origin, left rows, right origin, right rows)``: the
    joined rows number each side's parts end to end, and an origin lists
    those parts' ``(block, offsets)`` for the driver to resolve.
    """
    left, right = ([p for p in parts if p[0] == side] for side in (0, 1))
    if not left or not right:
        return
    lcols, rcols = (
        tuple(np.concatenate([p[c] for p in group]) for c in range(3, 7))
        for group in (left, right)
    )
    li, ri = vectorized.pairs_owned(
        lcols, rcols, *vectorized.join_rows(lcols, rcols),
        ctx.config["grid"].cell_rect(cell_id),
    )
    if len(li):
        ctx.emit(
            cell_id,
            ([p[1:3] for p in left], li, [p[1:3] for p in right], ri),
        )


def spatial_join_sjmr(
    runner: JobRunner,
    left_file: str,
    right_file: str,
    grid_size: Optional[int] = None,
) -> OperationResult:
    """Grid-repartition join of two heap files in one MapReduce job."""
    fs = runner.fs
    total = fs.num_records(left_file) + fs.num_records(right_file)
    if total == 0:
        return OperationResult(answer=[], jobs=[], system="hadoop")

    # The driver needs the space MBR to define the repartition grid; SJMR
    # obtains it from a statistics pass over each input (free for indexed
    # files, one map-only job for heap files).
    from repro.operations.stats import file_stats

    stats_jobs = []
    mbr: Optional[Rectangle] = None
    for name in dict.fromkeys((left_file, right_file)):
        stats_op = file_stats(runner, name)
        stats_jobs.extend(stats_op.jobs)
        file_mbr = stats_op.answer.mbr
        if file_mbr is not None:
            mbr = file_mbr if mbr is None else mbr.union(file_mbr)
    if mbr is None:
        return OperationResult(answer=[], jobs=stats_jobs, system="hadoop")
    size = grid_size or max(1, math.ceil(math.sqrt(total / fs.default_block_capacity)))
    grid = GridPartitioner(mbr, grid_size=size)

    input_files = (
        [left_file] if left_file == right_file else [left_file, right_file]
    )
    with runner.recorder.tracer.span(
        f"op:sjmr({left_file},{right_file})",
        kind="operation",
        left=left_file,
        right=right_file,
        grid_cells=grid.num_cells(),
    ) as op_span:
        job = Job(
            input_file=input_files,
            map_fn=_sjmr_map,
            reduce_fn=_sjmr_reduce,
            num_reducers=grid.num_cells(),
            config={
                "grid": grid,
                "left": left_file,
                "self_join": left_file == right_file,
            },
            name=f"sjmr({left_file},{right_file})",
        )
        result = runner.run(job)

        left_blocks = fs.get(left_file).blocks
        right_blocks = fs.get(right_file).blocks
        answer: List[Tuple[Any, Any]] = []
        for l_origin, li, r_origin, ri in result.output:
            answer.extend(zip(
                _thaw(_origin_records(left_blocks, l_origin), li),
                _thaw(_origin_records(right_blocks, r_origin), ri),
            ))
        op_span.set("pairs", len(answer))
    return OperationResult(
        answer=answer, jobs=stats_jobs + [result], system="hadoop"
    )


# ----------------------------------------------------------------------
# Distributed join: the SpatialHadoop algorithm
# ----------------------------------------------------------------------
def _dj_map(pair, _block, ctx):
    """Distributed-join per-pair kernel (module-level: picklable)."""
    owner, left, right = pair
    li, ri = vectorized.join_rows(left, right)
    if owner is not None:
        li, ri = vectorized.pairs_owned(left, right, li, ri, owner)
    ctx.write_output((ctx.split.block_index, li, ri))


def spatial_join_distributed(
    runner: JobRunner, left_file: str, right_file: str
) -> OperationResult:
    """Index-aware join of two spatially indexed files."""
    fs = runner.fs
    left_index = global_index_of(fs, left_file)
    right_index = global_index_of(fs, right_file)
    if left_index is None or right_index is None:
        raise ValueError("distributed join requires both inputs to be indexed")

    # The driver reads partition columns directly (no map-input splits),
    # so route the read through the checksummed HDFS path: replicas fail
    # over, and a block with no healthy copy fails typed instead of
    # serving rotten data.
    runner.verify_driver_read(left_file, right_file)
    left_blocks = {b.metadata["cell_id"]: b for b in fs.get(left_file).blocks}
    right_blocks = {b.metadata["cell_id"]: b for b in fs.get(right_file).blocks}

    tracer = runner.recorder.tracer
    with tracer.span(
        f"op:dj({left_file},{right_file})",
        kind="operation",
        left=left_file,
        right=right_file,
    ) as op_span:
        # Join the global indexes: one virtual split per overlapping
        # cell pair, carrying the two blocks' MBR columns. Its block
        # stands for the rows the task reads, the left block's first.
        #
        # Duplicate avoidance: a disjoint index stores a record in every
        # cell it overlaps, so a pair can meet in several cell pairs. Its
        # reference point lies in exactly one half-open cell of such an
        # index (in one cell intersection when both are disjoint), and
        # only that cell's task reports it. A side that is not disjoint
        # stores each record once and adds nothing to dedup.
        disjoint = (left_index.disjoint, right_index.disjoint)
        with tracer.span("dj:index-join", kind="phase") as pair_span:
            columns = {
                id(b): block_columns(b)
                for blocks in (left_blocks, right_blocks)
                for b in blocks.values()
            }
            pairs: List[Tuple[Block, Block]] = []
            splits: List[InputSplit] = []
            for lc in left_index:
                for rc in right_index:
                    overlap = lc.mbr.intersection(rc.mbr)
                    if overlap is None:
                        continue
                    lb, rb = left_blocks[lc.cell_id], right_blocks[rc.cell_id]
                    owner = {
                        (True, True): overlap,
                        (True, False): lc.mbr,
                        (False, True): rc.mbr,
                    }.get(disjoint)
                    splits.append(InputSplit(
                        file=left_file,
                        block_index=len(pairs),
                        block=Block(records=range(len(lb) + len(rb))),
                        key=(owner, columns[id(lb)], columns[id(rb)]),
                    ))
                    pairs.append((lb, rb))
            skipped = len(left_blocks) * len(right_blocks) - len(pairs)
            pair_span.set("pairs", len(pairs))
            pair_span.set("pairs_skipped", skipped)

        job = Job(
            input_file=[left_file, right_file],
            map_fn=_dj_map,
            splitter=lambda _fs, _job: splits,
            name=f"dj({left_file},{right_file})",
        )
        result = runner.run(job)
        answer: List[Tuple[Any, Any]] = []
        for pair_index, li, ri in result.output:
            lb, rb = pairs[pair_index]
            answer.extend(zip(_thaw(lb.records, li), _thaw(rb.records, ri)))
        op_span.set("result_pairs", len(answer))
        op_span.set("partitions_pruned", skipped)
    return OperationResult(answer=answer, jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def plan_spatial_join(
    runner: JobRunner, left_file: str, right_file: str
) -> PlanNode:
    """EXPLAIN plan for a join: distributed join when both sides are
    indexed (the partition-pair pruning is computed exactly from the two
    global indexes), SJMR otherwise."""
    fs = runner.fs
    left_index = global_index_of(fs, left_file)
    right_index = global_index_of(fs, right_file)

    if left_index is not None and right_index is not None:
        pairs = [
            (lc, rc)
            for lc in left_index
            for rc in right_index
            if lc.mbr.intersection(rc.mbr) is not None
        ]
        total_pairs = len(left_index) * len(right_index)
        root = PlanNode(
            f"SpatialJoin({left_file},{right_file})",
            kind="operation",
            detail={
                "strategy": "distributed-join",
                "left_technique": left_index.technique,
                "right_technique": right_index.technique,
                "dedup": "reference-point"
                if left_index.disjoint or right_index.disjoint
                else "none",
            },
            estimated={"rounds": 1},
        )
        root.add(
            PlanNode(
                "GlobalIndexJoin",
                kind="filter",
                detail={"filter": "overlapping partition pairs"},
                estimated={
                    "partitions_total": total_pairs,
                    "partitions_scanned": len(pairs),
                    "partitions_pruned": total_pairs - len(pairs),
                },
            )
        )
        records_in = [lc.num_records + rc.num_records for lc, rc in pairs]
        root.add(
            PlanNode(
                f"job:dj({left_file},{right_file})",
                kind="job",
                detail={"map": "per-pair join kernel", "reduce": "none"},
                estimated={
                    "blocks_read": len(pairs),
                    "records_read": sum(records_in),
                    "cost": estimate_job_cost(runner.cluster, records_in),
                },
            )
        )
        return root

    # SJMR: statistics pass per distinct heap input, then the
    # grid-repartition join.
    total = fs.num_records(left_file) + fs.num_records(right_file)
    self_join = left_file == right_file
    size = max(1, math.ceil(math.sqrt(max(1, total) / fs.default_block_capacity)))
    root = PlanNode(
        f"SpatialJoin({left_file},{right_file})",
        kind="operation",
        detail={
            "strategy": "sjmr",
            "grid": f"{size}x{size}",
            "dedup": "reference-point",
        },
    )
    stats_jobs = 0
    for name in dict.fromkeys((left_file, right_file)):
        if global_index_of(fs, name) is not None:
            continue  # indexed side: statistics come free from the index
        stats_jobs += 1
        entry = fs.get(name)
        root.add(
            PlanNode(
                f"job:stats({name})",
                kind="job",
                detail={"map": "per-block MBR + count", "reduce": "merge"},
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
    root.estimated = {"rounds": stats_jobs + 1}
    blocks = fs.num_blocks(left_file)
    if not self_join:
        blocks += fs.num_blocks(right_file)
    # One part per (block, cell, side); a heap block's rows reach every cell.
    shuffle = blocks * size * size * (2 if self_join else 1)
    root.add(
        PlanNode(
            f"job:sjmr({left_file},{right_file})",
            kind="job",
            detail={
                "map": "grid repartition",
                "reduce": "per-cell join kernel",
                "reducers": size * size,
            },
            estimated={
                "blocks_read": blocks,
                "records_read": total,
                "shuffle_records": shuffle,
                "cost": estimate_job_cost(
                    runner.cluster,
                    [total // max(1, blocks)] * blocks,
                    reduce_records_in=[
                        shuffle // max(1, size * size)
                    ]
                    * (size * size),
                    shuffle_records=shuffle,
                ),
            },
        )
    )
    return root
