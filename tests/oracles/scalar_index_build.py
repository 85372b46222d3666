"""The record-at-a-time index build, kept as the oracle.

This is the build ``repro.index.build`` ran before it went columnar: one
``shape_mbr`` and one ``Partitioner.assign`` call per record, MBRs merged
by ``Rectangle.union``. It runs no MapReduce job and builds no local
index; it answers what the columnar build must reproduce exactly — which
cells exist, their boundaries, and which record objects each one stores.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List

from repro.geometry import Rectangle
from repro.index.build import DEFAULT_SAMPLE_SIZE, PARTITIONERS
from repro.index.partitioners.base import shape_mbr
from repro.index.sampler import reservoir_sample


@dataclass
class OracleCell:
    cell_id: int
    mbr: Rectangle
    content_mbr: Rectangle
    records: List[Any]


def _union(mbrs) -> Rectangle:
    mbrs = iter(mbrs)
    out = next(mbrs)
    for mbr in mbrs:
        out = out.union(mbr)
    return out


def scalar_build(
    source_blocks: List[List[Any]],
    technique: str,
    capacity: int,
    sample_size: int = DEFAULT_SAMPLE_SIZE,
    seed: int = 0,
) -> Dict[int, OracleCell]:
    """Cells of ``technique`` over the given heap-file blocks, by cell id."""
    # Sampling pass: per-block MBR and reservoir sample of record centres.
    per_block = max(8, sample_size // max(1, len(source_blocks)))
    block_mbrs = []
    sample = []
    for block_index, records in enumerate(source_blocks):
        if not records:
            continue
        block_mbrs.append(_union(shape_mbr(r) for r in records))
        picked = reservoir_sample(records, per_block, seed=block_index)
        sample.extend(shape_mbr(r).center for r in picked)
    space = _union(block_mbrs)
    sample = reservoir_sample(sample, sample_size, seed=seed)

    total = sum(len(records) for records in source_blocks)
    num_cells = max(1, -(-total // capacity))
    partitioner = PARTITIONERS[technique].create(sample, num_cells, space)

    # Partitioning pass: route every record, in block order.
    routed: Dict[int, List[Any]] = {}
    for records in source_blocks:
        for record in records:
            for cell_id in partitioner.assign(shape_mbr(record)):
                routed.setdefault(cell_id, []).append(record)

    cells = {}
    for cell_id, records in routed.items():
        content_mbr = _union(shape_mbr(r) for r in records)
        cells[cell_id] = OracleCell(
            cell_id=cell_id,
            mbr=(
                partitioner.cell_rect(cell_id)
                if partitioner.disjoint
                else content_mbr
            ),
            content_mbr=content_mbr,
            records=records,
        )
    return cells
