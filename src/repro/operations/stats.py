"""File statistics: the ``info`` operation.

Several drivers need dataset-level statistics before planning a job: SJMR
needs the space MBR to define its repartition grid, index building needs
the record count, and the real system's ``info`` shell command prints all
of it. For an indexed file the statistics are free (they live in the
global index); for a heap file a map-only statistics job computes them in
one cheap pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of
from repro.geometry import Rectangle
from repro.index.rtree import block_columns, columns_mbr
from repro.mapreduce import Job, JobRunner


@dataclass(frozen=True)
class FileStats:
    """Summary statistics of one spatial file."""

    num_records: int
    num_blocks: int
    mbr: Optional[Rectangle]  # None for an empty file
    indexed: bool
    technique: Optional[str] = None

    @property
    def density(self) -> float:
        """Records per unit area (0 for empty/degenerate extents)."""
        if self.mbr is None or self.mbr.area <= 0:
            return 0.0
        return self.num_records / self.mbr.area


def _stats_map(_key, block, ctx):
    """Per-block record count + MBR (module-level: picklable)."""
    if len(block):
        ctx.emit(1, (len(block), columns_mbr(*block_columns(block))))


def _stats_reduce(_key, partials, ctx):
    """Merge the per-block partial statistics (module-level: picklable)."""
    total = sum(n for n, _ in partials)
    mbr = partials[0][1]
    for _, m in partials[1:]:
        mbr = mbr.union(m)
    ctx.emit(1, (total, mbr))


def file_stats(runner: JobRunner, file_name: str) -> OperationResult:
    """Compute :class:`FileStats` for ``file_name``.

    Indexed files answer from the global index without any MapReduce job
    (zero cost); heap files run one map-only pass.
    """
    fs = runner.fs
    entry = fs.get(file_name)
    gindex = global_index_of(fs, file_name)
    if gindex is not None:
        stats = FileStats(
            num_records=gindex.total_records,
            num_blocks=entry.num_blocks,
            mbr=gindex.mbr if len(gindex) else None,
            indexed=True,
            technique=gindex.technique,
        )
        return OperationResult(answer=stats, jobs=[])

    job = Job(
        input_file=file_name,
        map_fn=_stats_map,
        reduce_fn=_stats_reduce,
        name=f"stats({file_name})",
    )
    result = runner.run(job)
    if result.output:
        total, mbr = result.output[0]
    else:
        total, mbr = 0, None
    stats = FileStats(
        num_records=total,
        num_blocks=entry.num_blocks,
        mbr=mbr,
        indexed=False,
    )
    return OperationResult(answer=stats, jobs=[result], system="hadoop")
