"""Shared datatypes of the MapReduce runtime."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.mapreduce.fs import Block


@dataclass(frozen=True)
class InputSplit:
    """The unit of work of one map task.

    ``key`` is what the map function receives as its input key. The default
    splitter passes the block index; SpatialHadoop's splitter passes the
    partition cell (an MBR) so map functions can implement per-partition
    pruning rules, exactly as in the paper's pseudo-code (``MAP(k: Rectangle,
    ...)``).
    """

    file: str
    block_index: int
    block: Block
    key: Any = None

    @property
    def metadata(self) -> Dict[str, Any]:
        return self.block.metadata


@dataclass(slots=True)
class TaskResult:
    """What one successful task attempt hands back to the driver.

    ``emitted`` are the ``(key, value)`` pairs the task emitted (after the
    combiner, for map tasks); ``output`` the records it wrote straight to
    the job output. ``seconds`` is the attempt's CPU charge, ``events``
    its trace events and log records, and ``phases`` its profiler
    attribution (empty unless the job runs profiled). The driver merges
    results in split / bucket order, and the checkpoint journal stores
    them per wave.
    """

    records_in: int
    counters: Dict[str, int]
    emitted: List[Tuple[Any, Any]]
    output: List[Any]
    seconds: float
    events: List[Dict[str, Any]]
    phases: Dict[str, Any]


@dataclass(slots=True)
class TaskFailure:
    """A failed task attempt: its outcome, its error and its CPU charge.

    ``outcome`` is ``crash``, ``worker-lost``, ``timeout`` or
    ``corrupt`` (see :class:`~repro.mapreduce.cluster.TaskAttempt`).
    """

    outcome: str
    error: Exception
    seconds: float = 0.0
