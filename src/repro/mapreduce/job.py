"""Job configuration and task contexts."""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.mapreduce.counters import Counters
from repro.mapreduce.fs import FileSystem
from repro.mapreduce.types import InputSplit

#: map(key, block, context) — one call per input split, mirroring the
#: papers' pseudo-code where the map function receives a whole partition
#: (``MAP(k: Rectangle, P: set of shapes)``). ``block`` is the split's
#: sealed :class:`~repro.mapreduce.fs.Block`, in the driver or as the pool
#: ships it to a worker (its payload without its records). It has
#: ``len``, iterates its records, and carries ``records``, ``columnar``
#: and ``metadata``, so a record-at-a-time mapper iterates ``block`` and
#: a columnar one reads ``block.columnar`` without thawing a record.
MapFn = Callable[[Any, Any, "MapContext"], None]
#: combine/reduce(key, values, context)
ReduceFn = Callable[[Any, List[Any], "ReduceContext"], None]
#: splitter(fs, job) -> input splits (the SpatialFileSplitter hook)
SplitterFn = Callable[[FileSystem, "Job"], List[InputSplit]]


def _stable_key_bytes(key: Any) -> bytes:
    """A canonical byte encoding of a shuffle key.

    Python's builtin ``hash`` is salted per interpreter run for strings
    (PYTHONHASHSEED), so using it to pick a reducer makes task placement —
    and therefore per-reducer stats and output order — nondeterministic
    across runs. This encoding is stable across runs and processes. A type
    tag keeps distinct types from colliding (``1`` vs ``"1"``).
    """
    if key is None:
        return b"n:"
    if isinstance(key, bytes):
        return b"b:" + key
    if isinstance(key, str):
        return b"s:" + key.encode("utf-8", "surrogatepass")
    if isinstance(key, int):
        # bool is an int subclass and True == 1: they must share a bucket,
        # because reducers group keys by equality.
        return b"i:%d" % key
    if isinstance(key, float):
        if key.is_integer():  # 1.0 == 1: same bucket as the int
            return b"i:%d" % int(key)
        return b"f:" + repr(key).encode("ascii")
    if isinstance(key, (tuple, frozenset)):
        parts = key if isinstance(key, tuple) else sorted(key, key=repr)
        return b"t:" + b"|".join(_stable_key_bytes(part) for part in parts)
    # Fall back to repr; fine for dataclasses and value types, which is
    # what spatial jobs key by. (Objects with identity-based reprs would
    # scatter equal keys; no job keys by one.)
    return b"o:" + repr(key).encode("utf-8", "surrogatepass")


def default_partitioner(key: Any, num_reducers: int) -> int:
    """Hadoop's hash partitioner, on a run-stable hash (CRC-32)."""
    return zlib.crc32(_stable_key_bytes(key)) % num_reducers


#: Severity order for ``ctx.log``. Kept as a local table (mirroring
#: ``repro.observe.log.LEVELS``) so task bodies shipped to worker
#: processes never import the observability package.
_LOG_SEVERITY = {"debug": 10, "info": 20, "warn": 30, "error": 40}


@dataclass
class Job:
    """Configuration of one MapReduce job.

    Only ``input_file`` and ``map_fn`` are mandatory; a job without
    ``reduce_fn`` is map-only and its map output goes straight to the job
    output, as in Hadoop.

    ``config`` is free-form and reaches every task context, but a few
    keys are also read by the runtime's fault-tolerance layer and
    override the :class:`~repro.mapreduce.JobRunner` defaults per job:

    * ``max_attempts`` — attempts per task before the job fails.
    * ``task_timeout`` — per-attempt simulated-CPU budget in seconds.
    * ``speculative`` / ``slow_task_factor`` — straggler backups.
    * ``faults`` — a :class:`~repro.mapreduce.FaultPlan`, a spec string
      (see :meth:`FaultPlan.parse`), or ``None`` to disable injection
      for this job even when the runner carries a plan.
    """

    input_file: Any  # one file name, or a list of names for multi-input jobs
    map_fn: MapFn
    combine_fn: Optional[ReduceFn] = None
    reduce_fn: Optional[ReduceFn] = None
    num_reducers: int = 1
    splitter: Optional[SplitterFn] = None
    config: Dict[str, Any] = field(default_factory=dict)
    name: str = "job"

    @property
    def input_files(self) -> List[str]:
        """The input file names, whether one or several were configured."""
        if isinstance(self.input_file, str):
            return [self.input_file]
        return list(self.input_file)


class _EmitterContext:
    """Shared plumbing of the map and reduce contexts."""

    def __init__(self, job: Job, counters: Counters):
        self.job = job
        self.counters = counters
        self._emitted: List[Tuple[Any, Any]] = []
        self._output: List[Any] = []
        self._events: List[Dict[str, Any]] = []

    @property
    def config(self) -> Dict[str, Any]:
        return self.job.config

    def emit(self, key: Any, value: Any) -> None:
        """Emit an intermediate key-value pair to the next stage."""
        self._emitted.append((key, value))

    def trace_event(self, name: str, **attrs: Any) -> None:
        """Record a trace event from inside a task.

        Tasks may run in worker processes that cannot reach the driver's
        tracer, so events are collected locally as plain dicts, shipped
        back with the task result, and attached by the driver under the
        task's span — in split/bucket order, so the merged trace never
        depends on the execution backend. Cheap no-matter-what: when
        tracing is disabled the driver simply drops them.
        """
        self._events.append({"name": name, "attrs": attrs})

    def log(self, level: str, event: str, **attrs: Any) -> None:
        """Emit a structured event-log record from inside a task.

        Like :meth:`trace_event`, records are collected as plain dicts
        and shipped back with the task result; the driver folds them
        into its :class:`~repro.observe.log.EventLog` in split/bucket
        order, scoped to this task. The driver's log threshold rides in
        ``job.config["log_level"]`` (numeric), so a disabled or
        filtered-out log costs two dict lookups and nothing else —
        ``attrs`` must stay deterministic (record counts, not clocks)
        because shipped records are part of the normalized log.
        """
        threshold = self.job.config.get("log_level")
        if threshold is None or _LOG_SEVERITY.get(level, 0) < threshold:
            return
        self._events.append({"name": event, "attrs": attrs, "log": level})

    def write_output(self, record: Any) -> None:
        """Write a record directly to the final job output.

        This models the *early flush* of the papers' pruning steps: parts of
        the answer that need no further merging bypass the shuffle entirely.
        """
        self._output.append(record)


class MapContext(_EmitterContext):
    """Context passed to map functions."""

    def __init__(self, job: Job, counters: Counters, split: InputSplit):
        super().__init__(job, counters)
        self.split = split


class ReduceContext(_EmitterContext):
    """Context passed to combine and reduce functions."""

    def __init__(self, job: Job, counters: Counters, task_index: int):
        super().__init__(job, counters)
        self.task_index = task_index
