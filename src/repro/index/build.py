"""MapReduce index construction.

Builds a spatially indexed file out of a heap file in the paper's three
phases: a sampling pass computes the exact file MBR and a random sample;
the chosen partitioning technique derives cell boundaries from the sample;
and a partitioning MapReduce job routes every record to its cell(s) and
packs each cell into one block, its rows in STR order. The resulting
file carries its :class:`~repro.index.global_index.GlobalIndex` in the
file metadata, and each block carries its cell MBR in the block
metadata; a block's local index is derived from its rows on first use
(:func:`repro.index.rtree.local_index`), never stored.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Type

import numpy as np

from repro.geometry import Rectangle
from repro.index.global_index import Cell, GlobalIndex
from repro.index.partitioners.base import Partitioner
from repro.index.partitioners.grid import GridPartitioner
from repro.index.partitioners.kdtree import KdTreePartitioner
from repro.index.partitioners.quadtree import QuadTreePartitioner
from repro.index.partitioners.space_curves import (
    HilbertCurvePartitioner,
    ZCurvePartitioner,
)
from repro.index.partitioners.str_ import StrPartitioner, StrPlusPartitioner
from repro.index.rtree import block_columns, columns_mbr, str_order
from repro.index.sampler import reservoir_sample
from repro.mapreduce import Block, Job, JobResult, JobRunner
from repro.mapreduce.runtime import default_splitter
from repro.mapreduce.columnar import ColumnarPayload

#: Registry of partitioning techniques by name.
PARTITIONERS: Dict[str, Type[Partitioner]] = {
    cls.technique: cls
    for cls in (
        GridPartitioner,
        StrPartitioner,
        StrPlusPartitioner,
        QuadTreePartitioner,
        KdTreePartitioner,
        ZCurvePartitioner,
        HilbertCurvePartitioner,
    )
}

DEFAULT_SAMPLE_SIZE = 2_000


def _derived_columns_splitter(derived):
    """One split per block, key = the block's derived MBR columns if any.

    Each block's columns travel with its own split only, so a worker
    chunk is never sent another block's.
    """
    def splitter(fs, job):
        return [
            replace(split, key=derived.get(split.block_index))
            for split in default_splitter(fs, job)
        ]
    return splitter


def _sample_map(_key, block, ctx):
    """Per-block MBR + sampled centres (module-level: picklable).

    The sample is two float64 arrays, the centre x and y of the drawn
    rows in draw order. A block without a columnar payload (polygons,
    Features over polygons) has its MBR columns derived here, once, and
    shipped back with the sample so the partition job and the commit
    never call ``shape_mbr`` again. Features over float points or
    rectangles have a payload and read its columns like bare shapes.
    """
    n = len(block)
    if not n:
        return
    cols = block_columns(block)
    per_block = max(
        8, ctx.config["sample_size"] // max(1, ctx.config["num_blocks"])
    )
    picked = reservoir_sample(range(n), per_block, seed=ctx.split.block_index)
    x1, y1, x2, y2 = (col[picked] for col in cols)
    derived = cols if block.columnar is None else None
    ctx.write_output((
        ctx.split.block_index, columns_mbr(*cols),
        (x1 + x2) / 2.0, (y1 + y2) / 2.0, derived,
    ))


def _partition_map(derived, block, ctx):
    """Route the split's rows to their cell(s) (module-level: picklable).

    One ``(cell_id, (block_index, offsets))`` pair per cell the block
    touches crosses the shuffle, never a record; the commit phase resolves
    offsets back to the driver's own record objects.
    """
    if not len(block):
        return
    cols = block_columns(block) if derived is None else derived
    block_index = ctx.split.block_index
    for cell_id, offsets in ctx.config["partitioner"].partition_columns(*cols):
        ctx.emit(cell_id, (block_index, offsets))


def _partition_reduce(cell_id, refs, ctx):
    """Pack one cell's row references (module-level: picklable)."""
    ctx.emit(cell_id, (cell_id, refs))


def _layout(payload):
    """A source payload's ``(shape kind, has attributes)``."""
    if payload is None:
        return None, False
    return payload.kind, payload.has_attributes


def _pack_cell(refs, source_blocks, source_columns):
    """Gather one cell's rows into a block in packed (STR) order.

    Returns the block (records and columnar payload in the same row
    order, so the local index derived from it packs the bulk-loaded
    leaves) and the tight MBR of its contents.
    """
    refs = sorted(refs, key=lambda ref: ref[0])
    records = []
    for b, offsets in refs:
        records.extend(map(source_blocks[b].records.__getitem__,
                           offsets.tolist()))
    # The cell gets a payload when every source block has one of the same
    # layout: one shape kind, and attributes on all of them or on none.
    layouts = {_layout(source_blocks[b].columnar) for b, _ in refs}
    kind, features = layouts.pop() if len(layouts) == 1 else (None, False)
    # Points have degenerate MBRs: their (x, y) pair serves as both corners.
    repeat = 2 if kind == "point" else 1
    cols = [
        np.concatenate(
            [source_columns[b][k][offsets] for b, offsets in refs]
        )
        for k in range(4 // repeat)
    ]
    order = str_order(*(cols * repeat))
    records = list(map(records.__getitem__, order.tolist()))
    cols = [col[order] for col in cols]
    block = Block(records=records)
    if kind is not None:
        attributes = [r.attributes for r in records] if features else None
        block.columnar = ColumnarPayload(
            kind, len(records), tuple(cols), attributes
        )
    return block, columns_mbr(*(cols * repeat))


@dataclass
class IndexBuildResult:
    """Outcome of one index build."""

    output_file: str
    global_index: GlobalIndex
    jobs: List[JobResult] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Total simulated cluster time across the build's MapReduce jobs."""
        return sum(j.makespan for j in self.jobs)

    @property
    def replication(self) -> float:
        """Stored records divided by input records (1.0 = no replication)."""
        stored = self.global_index.total_records
        source = max(1, self.jobs[-1].counters.get("MAP_INPUT_RECORDS"))
        return stored / source


def build_index(
    runner: JobRunner,
    input_file: str,
    output_file: str,
    technique: str = "str",
    block_capacity: Optional[int] = None,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> IndexBuildResult:
    """Index ``input_file`` into ``output_file`` with the given technique.

    ``block_capacity`` is the records-per-partition target (defaults to the
    file system's block capacity); the number of cells is derived from it
    exactly as SpatialHadoop derives cell count from the 64 MB block size.
    """
    if technique not in PARTITIONERS:
        raise ValueError(
            f"unknown technique {technique!r}; pick one of {sorted(PARTITIONERS)}"
        )
    fs = runner.fs
    capacity = block_capacity or fs.default_block_capacity
    tracer = runner.recorder.tracer

    with tracer.span(
        f"index:{technique}({input_file})",
        kind="index-build",
        technique=technique,
        input=input_file,
        output=output_file,
    ) as build_span:
        # --------------------------------------------------------------
        # Phase 1: sampling job (map-only). Each map task ships its block
        # MBR and a small per-block sample to the driver.
        # --------------------------------------------------------------
        with tracer.span("index:sample", kind="index-phase") as sample_span:
            num_blocks = fs.num_blocks(input_file)
            sample_job = Job(
                input_file=input_file,
                map_fn=_sample_map,
                config={"num_blocks": num_blocks, "sample_size": sample_size},
                name=f"sample({input_file})",
            )
            sample_result = runner.run(sample_job)

            total_records = fs.num_records(input_file)
            if not sample_result.output:
                raise ValueError(f"cannot index empty file: {input_file!r}")
            space: Rectangle = sample_result.output[0][1]
            derived_columns = {}
            for block_index, mbr, _, _, derived in sample_result.output:
                space = space.union(mbr)
                if derived is not None:
                    derived_columns[block_index] = derived
            xs, ys = (
                np.concatenate([out[k] for out in sample_result.output])
                for k in (2, 3)
            )
            picked = reservoir_sample(range(len(xs)), sample_size, seed=seed)
            sample = (xs[picked], ys[picked])
            sample_span.set("sample_points", len(picked))

        # --------------------------------------------------------------
        # Phase 2: derive cell boundaries, then the partitioning job. Map
        # routes records to cells (replicating for disjoint techniques);
        # each reduce task packs one cell.
        # --------------------------------------------------------------
        with tracer.span("index:plan", kind="index-phase") as plan_span:
            num_cells = max(1, -(-total_records // capacity))  # ceil division
            partitioner = PARTITIONERS[technique].create(
                sample, num_cells, space
            )
            plan_span.set("cells", partitioner.num_cells())
            plan_span.set("disjoint", partitioner.disjoint)

        partition_job = Job(
            input_file=input_file,
            map_fn=_partition_map,
            splitter=_derived_columns_splitter(derived_columns),
            reduce_fn=_partition_reduce,
            num_reducers=partitioner.num_cells(),
            config={"partitioner": partitioner},
            name=f"partition({input_file}, {technique})",
        )
        partition_result = runner.run(partition_job)

        # --------------------------------------------------------------
        # Phase 3 (commit, on the master): assemble blocks + global index.
        # --------------------------------------------------------------
        with tracer.span("index:commit", kind="index-phase") as commit_span:
            source_blocks = fs.get(input_file).blocks
            source_columns = [
                derived_columns.get(i) or block_columns(block)
                for i, block in enumerate(source_blocks)
            ]
            blocks: List[Block] = []
            cells: List[Cell] = []
            for cell_id, refs in sorted(
                partition_result.output, key=lambda kv: kv[0]
            ):
                block, content_mbr = _pack_cell(
                    refs, source_blocks, source_columns
                )
                if partitioner.disjoint:
                    cell_mbr = partitioner.cell_rect(cell_id)
                else:
                    cell_mbr = content_mbr
                block.metadata.update(cell=cell_mbr, cell_id=cell_id)
                blocks.append(block)
                cells.append(
                    Cell(
                        cell_id=cell_id,
                        mbr=cell_mbr,
                        num_records=len(block),
                        content_mbr=content_mbr,
                    )
                )

            global_index = GlobalIndex(
                cells=cells, technique=technique, disjoint=partitioner.disjoint
            )
            if fs.exists(output_file):
                fs.delete(output_file)
            fs.create_file_from_blocks(
                output_file,
                blocks,
                metadata={"global_index": global_index, "technique": technique},
            )
            commit_span.set("partitions", len(cells))
            commit_span.set("stored_records", global_index.total_records)
        build_span.set("partitions", len(cells))

    return IndexBuildResult(
        output_file=output_file,
        global_index=global_index,
        jobs=[sample_result, partition_result],
    )
