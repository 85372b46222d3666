"""The MapReduce execution engine.

Jobs run as two waves — map, then reduce — and each wave is dispatched
through a pluggable :class:`~repro.mapreduce.executor.Executor`: serially
in-process (the default) or across a pool of worker processes. To keep the
two backends bit-identical, tasks are pure functions: each task builds its
own :class:`Counters`, and the driver recombines task results **in split /
bucket order**, so output lists and counter values never depend on which
backend (or how many workers) ran the wave.

Task durations are measured with ``time.process_time`` — per-task CPU
seconds, not wall-clock — so the simulated makespan produced by the
:class:`ClusterModel` is unaffected by real parallelism (worker processes
time their own CPU, oversubscription and scheduling noise excluded).

Waves are *fault tolerant*: every task runs as one or more **attempts**.
An attempt that raises, exceeds the per-attempt timeout, or returns an
invalid result is retried with capped exponential backoff (simulated —
charged to the makespan, never slept) up to ``max_attempts``; only then
does the job fail, re-raising the original error. Because retried tasks
still merge in split/bucket order and only the winning attempt's output
and counters are used, job results stay bit-identical to a clean run.
With ``speculative=True``, tasks slower than ``slow_task_factor ×`` the
wave median get a backup attempt and the faster copy wins. The
:mod:`repro.mapreduce.faults` harness injects deterministic failures for
testing all of this.
"""

from __future__ import annotations

import os
import pickle
import sys
import time
from array import array
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.mapreduce.checkpoint import (
    CancellationToken,
    CheckpointManager,
    DriverCrashed,
    check_active,
    set_active_token,
)
from repro.mapreduce.cluster import ClusterModel, TaskAttempt, TaskStats
from repro.mapreduce.counters import Counter, Counters
from repro.mapreduce.executor import (
    CHUNKS_PER_WORKER,
    Executor,
    make_executor,
)
from repro.mapreduce.faults import (
    DEFAULT_HANG_SECONDS,
    FaultPlan,
    InjectedFault,
    RemoteTaskError,
    TaskCorrupted,
    TaskTimeoutError,
    WorkerKilled,
    in_worker_process,
    resolve_faults,
    retry_backoff,
)
from repro.mapreduce.fs import FileSystem
from repro.mapreduce.job import (
    CommitContext,
    Job,
    MapContext,
    ReduceContext,
    default_partitioner,
)
from repro.mapreduce.types import InputSplit, TaskFailure, TaskResult
from repro.observe.history import JobHistory
from repro.observe.metrics import (
    BACKOFF_SECONDS_BUCKETS,
    SHUFFLE_BYTES_BUCKETS,
    TASK_DURATION_BUCKETS,
    MetricsRegistry,
)
from repro.observe import profile as _profiler
from repro.observe.trace import NullTracer

#: Per-task clock: CPU seconds of the calling process. Worker processes
#: time their own CPU, so real parallelism cannot corrupt the simulated
#: makespan (wall-clock in an oversubscribed pool would).
_task_clock = time.process_time

#: Shared no-op tracer: tracing must cost nothing until enabled.
_NULL_TRACER = NullTracer()

#: Hadoop's ``mapreduce.map.maxattempts`` default: a task may run this
#: many times in total before the job fails.
DEFAULT_MAX_ATTEMPTS = 4

#: A task is a straggler when slower than this multiple of the wave
#: median (Hadoop's speculative-execution heuristic).
DEFAULT_SLOW_TASK_FACTOR = 2.0

#: Below this many tasks a median is meaningless; no speculation.
MIN_SPECULATION_TASKS = 3

#: What an attempt the fault plan scripted to corrupt returns instead of
#: its TaskResult: the driver rejects anything else as corrupt.
_CORRUPTED_RESULT = "\x00corrupted-task-result\x00"


#: Values sized by their buffer length, never memoised by type.
_BUFFER_TYPES: Tuple[type, ...] = (np.ndarray, array, memoryview)

#: Flat charge for a buffer's object header (what ``sys.getsizeof`` adds
#: on top of the bytes of an ``ndarray`` or ``array``).
_BUFFER_HEADER = 64


class _RecordSizer:
    """Memoised record sizing: one ``sys.getsizeof`` per record shape.

    Estimates the rough on-the-wire size of shuffled records for the
    shuffle-bytes counter. Shuffled records are overwhelmingly instances
    of a handful of types (tuples of a few fixed layouts, geometry
    shapes), so sizing one sample per (type, length) bucket replaces a
    per-record ``sys.getsizeof`` call with a dict lookup. Strings and
    bytes keep their exact length, and so do buffers (``ndarray``,
    ``array``, ``memoryview``) — bare or inside a tuple, as the index
    build ships row offsets — because one type covers every length.
    """

    __slots__ = ("_cache",)

    def __init__(self) -> None:
        self._cache: Dict[Any, int] = {}

    def size(self, record: Any) -> int:
        if isinstance(record, (str, bytes)):
            return len(record)
        if isinstance(record, _BUFFER_TYPES):
            return _BUFFER_HEADER + memoryview(record).nbytes
        nested = 0
        if isinstance(record, (tuple, list)):
            key: Any = (type(record), len(record))
            for item in record:
                if type(item) in _BUFFER_TYPES:
                    nested += self.size(item)
        else:
            key = type(record)
        cached = self._cache.get(key)
        if cached is None:
            cached = self._cache[key] = max(sys.getsizeof(record), 16)
        return cached + nested

    def total(self, pairs: Sequence[Tuple[Any, Any]]) -> int:
        size = self.size
        return sum(size(v) for _, v in pairs)


def default_splitter(fs: FileSystem, job: Job) -> List[InputSplit]:
    """One split per block, key = block index (plain Hadoop behaviour).

    Jobs may read several input files (e.g. the two sides of an SJMR join);
    map functions see the originating file as ``ctx.split.file``.
    """
    splits: List[InputSplit] = []
    entries: Dict[str, Any] = {}  # one namenode lookup per distinct file
    for file_name in job.input_files:
        entry = entries.get(file_name)
        if entry is None:
            entry = entries[file_name] = fs.get(file_name)
        splits.extend(
            InputSplit(file=file_name, block_index=i, block=block, key=i)
            for i, block in enumerate(entry.blocks)
        )
    return splits


def default_reader(split: InputSplit) -> Tuple[Any, List[Any]]:
    """Pass the split's records through untouched."""
    return split.key, list(split.block.records)


def block_reader(split: InputSplit) -> Tuple[Any, Any]:
    """Hand map tasks the block itself: they read columns, not records."""
    return split.key, split.block


@dataclass
class JobResult:
    """Everything a driver needs to know about a finished job."""

    output: List[Any]
    counters: Counters
    map_tasks: List[TaskStats] = field(default_factory=list)
    reduce_tasks: List[TaskStats] = field(default_factory=list)
    makespan: float = 0.0
    #: Fault-tolerance activity, zero-entries omitted: ``retries``,
    #: ``timeouts``, ``corrupt``, ``worker_lost``, ``crashes``,
    #: ``speculative``, ``faults_injected``, ``backoff_s``,
    #: ``pool_rebuilds``. Empty for a clean run. Diagnostics only —
    #: never part of the output/counters determinism contract
    #: (``pool_rebuilds`` in particular is backend-dependent).
    fault_summary: Dict[str, float] = field(default_factory=dict)
    #: Phase-time attribution (``{"map/kernel": {"s": .., "n": ..}}``),
    #: populated only when the job ran with profiling on. Wall-clock —
    #: like ``fault_summary``, diagnostics outside the determinism
    #: contract.
    phase_profile: Dict[str, Dict[str, float]] = field(default_factory=dict)

    @property
    def blocks_read(self) -> int:
        return self.counters.get(Counter.BLOCKS_READ)

    @property
    def shuffle_records(self) -> int:
        return self.counters.get(Counter.SHUFFLE_RECORDS)

    @property
    def tasks_retried(self) -> int:
        return int(self.fault_summary.get("retries", 0))

    @property
    def tasks_speculative(self) -> int:
        return int(self.fault_summary.get("speculative", 0))

    @property
    def tasks_timed_out(self) -> int:
        return int(self.fault_summary.get("timeouts", 0))


@dataclass
class _WavePolicy:
    """Resolved fault-tolerance and profiling knobs for one job's waves."""

    max_attempts: int = DEFAULT_MAX_ATTEMPTS
    task_timeout: Optional[float] = None
    speculative: bool = False
    slow_task_factor: float = DEFAULT_SLOW_TASK_FACTOR
    faults: Optional[FaultPlan] = None
    profile: bool = False
    #: Numeric event-log threshold shipped to tasks (None = log off).
    log_level: Optional[int] = None


# ----------------------------------------------------------------------
# Task bodies. These are module-level pure functions so the parallel
# executor can ship them to worker processes; the serial executor calls
# the very same code, which is what guarantees backend equivalence.
#
# A chunk is ``(job, wave, tasks)`` with tasks of ``(wave_index, attempt,
# item)``: a split for the map wave, a ``(bucket, groups)`` pair for the
# reduce wave. It returns one value per task, in order: a TaskResult, or
# a TaskFailure whose error is wrapped if unpicklable. Exceptions never
# propagate out of a chunk: the driver's wave supervisor decides whether
# an attempt is retried or fails the job.
# ----------------------------------------------------------------------
def _noop_map(_key: Any, _records: Any, _ctx: Any) -> None:  # pragma: no cover
    """Placeholder map function for reduce-wave job shipping."""


def _shipped_job(job: Job, wave: str, policy: _WavePolicy) -> Job:
    """A copy of ``job`` stripped to what one wave's tasks actually need.

    Driver-only hooks (splitter, commit, partitioner) never run inside a
    task, so dropping them keeps per-chunk pickling small and — more
    importantly — lets a job with an unpicklable driver hook still run
    its waves in parallel. The map wave keeps the reader. The resolved
    fault plan, the profiling decision and the event-log threshold ride
    along in the config so worker processes consult the same script as
    the driver.
    """
    config = job.config
    faults, profile = policy.faults, policy.profile
    log_level = policy.log_level
    if (
        faults is not None
        or config.get("faults") is not None
        or profile != bool(config.get("profile", False))
        or log_level != config.get("log_level")
    ):
        config = {k: v for k, v in config.items() if k != "faults"}
        if faults is not None:
            config["faults"] = faults
        config["profile"] = profile
        config.pop("log_level", None)
        if log_level is not None:
            config["log_level"] = log_level
    is_map = wave == "map"
    return replace(
        job,
        splitter=None,
        reader=(job.reader or default_reader) if is_map else None,
        commit_fn=None,
        partitioner=default_partitioner,
        map_fn=job.map_fn if is_map else _noop_map,
        combine_fn=job.combine_fn if is_map else None,
        reduce_fn=None if is_map else job.reduce_fn,
        config=config,
    )


def _combine(
    job: Job,
    counters: Counters,
    emitted: List[Tuple[Any, Any]],
) -> List[Tuple[Any, Any]]:
    """Run the combiner over one map task's output (grouped by key)."""
    groups: Dict[Any, List[Any]] = {}
    for k, v in emitted:
        groups.setdefault(k, []).append(v)
    ctx = ReduceContext(job, counters, task_index=-1)
    for k, values in groups.items():
        job.combine_fn(k, values, ctx)  # type: ignore[misc]
    counters.increment(Counter.COMBINE_INPUT_RECORDS, len(emitted))
    counters.increment(Counter.COMBINE_OUTPUT_RECORDS, len(ctx._emitted))
    # Combiner may also early-flush via write_output; preserve that.
    if ctx._output:
        raise RuntimeError(
            "combiners must not write final output; emit instead"
        )
    return ctx._emitted


def _map_body(job: Job, split: InputSplit, counters: Counters):
    """One map task: read the split, map it, combine; ``(records, ctx)``."""
    ctx = MapContext(job, counters, split)
    key, records = job.reader(split)
    job.map_fn(key, records, ctx)
    emitted = ctx._emitted
    if job.combine_fn is not None and emitted:
        ctx._emitted = _combine(job, counters, emitted)
    counters.increment(Counter.MAP_INPUT_RECORDS, len(records))
    counters.increment(Counter.MAP_OUTPUT_RECORDS, len(emitted))
    return len(records), ctx


def _reduce_body(job: Job, item, counters: Counters):
    """One reduce task over its key groups; ``(records, ctx)``."""
    task_index, groups = item
    ctx = ReduceContext(job, counters, task_index)
    # Hadoop sorts by key before reducing; keep that contract for
    # reducers that rely on key order.
    for k, values in _sorted_items(groups):
        job.reduce_fn(k, values, ctx)  # type: ignore[misc]
    records_in = sum(len(values) for _, values in groups)
    counters.increment(Counter.REDUCE_INPUT_RECORDS, records_in)
    counters.increment(
        Counter.REDUCE_OUTPUT_RECORDS, len(ctx._emitted) + len(ctx._output)
    )
    return records_in, ctx


_BODIES = {"map": _map_body, "reduce": _reduce_body}


def _task_id(wave: str, item: Any) -> str:
    """A task's name: its block (map) or its bucket (reduce)."""
    return f"map-{item.block_index}" if wave == "map" else f"reduce-{item[0]}"


def _run_task(job: Job, wave: str, item: Any) -> TaskResult:
    """Execute one task of ``wave``, timed and profiled."""
    counters = Counters()
    with _profiler.task_scope(job.config.get("profile", False)) as phases:
        started = _task_clock()
        records_in, ctx = _BODIES[wave](job, item, counters)
        elapsed = _task_clock() - started
    return TaskResult(
        records_in, counters.as_dict(), ctx._emitted, ctx._output, elapsed,
        ctx._events, dict(phases),
    )


def _run_attempt(job: Job, wave: str, index: int, attempt: int, item: Any):
    """One task attempt, fault plan consulted, exceptions captured.

    A scripted ``kill`` terminates the worker process for real
    (exercising pool recovery); in the driver process — the serial
    backend, or a pool fallback — it degrades to a ``worker-lost``
    failure so every backend records the same attempt history.
    """
    plan = job.config.get("faults")
    spec = plan.lookup(wave, index, attempt) if plan is not None else None
    if spec is not None and spec.kind == "kill":
        if in_worker_process():
            os._exit(137)
        return TaskFailure("worker-lost", WorkerKilled(
            f"injected worker kill at {wave}[{index}] attempt {attempt}"
        ))
    if spec is not None and spec.kind == "crash":
        return TaskFailure("crash", InjectedFault(
            f"injected crash at {wave}[{index}] attempt {attempt}"
        ))
    try:
        result = _run_task(job, wave, item)
    except Exception as exc:  # noqa: BLE001 - supervisor decides the fate
        return TaskFailure("crash", _shippable_error(exc))
    if spec is not None and spec.kind == "hang":
        # Inflate the CPU charge: the attempt "ran" for spec.seconds
        # longer, which trips per-attempt timeouts and makes the task a
        # straggler for speculation.
        result.seconds += spec.seconds
    elif spec is not None and spec.kind == "corrupt":
        return _CORRUPTED_RESULT
    return result


def _shippable_error(exc: Exception) -> Exception:
    """``exc`` if it can cross a process boundary, else a wrapper."""
    try:
        pickle.dumps(exc)
        return exc
    except Exception:
        return RemoteTaskError(f"{type(exc).__name__}: {exc}")


def _run_chunk(payload):
    """Execute one chunk of task attempts; one result per attempt.

    The ``check_active`` poll is the cooperative-cancellation task
    boundary: in the driver process (serial backend, pool fallbacks) it
    raises between tasks when a signal or deadline asked the run to
    stop; worker processes never arm a token, so there it is a no-op.
    """
    job, wave, tasks = payload
    results = []
    for index, attempt, item in tasks:
        check_active()
        results.append(_run_attempt(job, wave, index, attempt, item))
    return results


def _as_failure(result: Any, attempt: int) -> Optional[TaskFailure]:
    """``None`` for a TaskResult, else the attempt's failure form.

    Anything that is neither a TaskResult nor a TaskFailure is a
    corrupted result (injected or real): it fails the attempt before it
    can poison the merge, and the attempt is retried like any other.
    """
    if type(result) is TaskResult:
        return None
    if type(result) is TaskFailure:
        return result
    return TaskFailure("corrupt", TaskCorrupted(
        f"task attempt {attempt} returned an invalid result"
    ))


#: Fault-summary key counting each failure outcome.
_SUMMARY_KEYS = {
    "crash": "crashes",
    "worker-lost": "worker_lost",
    "timeout": "timeouts",
    "corrupt": "corrupt",
}


def _chunked(items: Sequence[Any], num_chunks: int) -> List[Sequence[Any]]:
    """Split ``items`` into at most ``num_chunks`` contiguous runs."""
    if not items:
        return []
    if num_chunks <= 1 or len(items) <= num_chunks:
        size = 1 if num_chunks > 1 else len(items)
    else:
        size = -(-len(items) // num_chunks)  # ceil division
    return [items[i : i + size] for i in range(0, len(items), size)]


class JobRunner:
    """Executes :class:`Job` instances against a :class:`FileSystem`.

    One runner holds one :class:`ClusterModel`; drivers that issue several
    jobs for one logical operation should sum the per-job makespans (plus
    any driver-side work) to report the operation's simulated time.

    ``workers`` selects the execution backend: 1 (the default) runs tasks
    serially in-process, >1 fans each wave out over that many worker
    processes. When ``workers`` is omitted, the ``REPRO_WORKERS``
    environment variable is consulted.

    ``tracer``, ``metrics`` and ``history`` attach the observability
    layer: a :class:`~repro.observe.Tracer` receives job/wave/task spans,
    a :class:`~repro.observe.MetricsRegistry` accumulates counters plus
    task-duration and shuffle-bytes histograms, and a
    :class:`~repro.observe.JobHistory` retains every finished job. All
    three default to off/no-op, which costs nothing per job.

    Fault tolerance is controlled by ``max_attempts`` (total tries per
    task before the job fails), ``task_timeout`` (per-attempt CPU-second
    budget), ``speculative`` / ``slow_task_factor`` (backup attempts for
    stragglers) and ``faults`` (a :class:`FaultPlan`, a spec string, or
    ``None`` to defer to ``$REPRO_FAULTS``). Fault plans are
    per-invocation chaos tooling and are never pickled with a workspace.
    """

    def __init__(
        self,
        fs: FileSystem,
        cluster: Optional[ClusterModel] = None,
        workers: Optional[int] = None,
        executor: Optional[Executor] = None,
        tracer=None,
        metrics: Optional[MetricsRegistry] = None,
        history: Optional[JobHistory] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        task_timeout: Optional[float] = None,
        speculative: bool = False,
        slow_task_factor: float = DEFAULT_SLOW_TASK_FACTOR,
        faults=None,
        profile: Optional[bool] = None,
    ):
        self.fs = fs
        self.cluster = cluster or ClusterModel()
        self.executor = executor if executor is not None else make_executor(workers)
        self.tracer = tracer if tracer is not None else _NULL_TRACER
        self.metrics = metrics
        self.history = history
        self.max_attempts = max(1, int(max_attempts))
        self.task_timeout = task_timeout
        self.speculative = bool(speculative)
        self.slow_task_factor = float(slow_task_factor)
        self.faults = resolve_faults(faults)
        #: Profiling default: True/False forces it; None defers to
        #: ``$REPRO_PROFILE`` (read per job, so tests can flip it).
        self.profile = profile
        #: Optional telemetry scrape log (see repro.observe.telemetry).
        #: Plain data — unlike the tracer/progress hooks it *is* pickled,
        #: so the time-series accumulates across workspace invocations.
        self.telemetry = None
        #: Optional structured event log (see repro.observe.log). Plain
        #: data, ring-buffer bounded, pickled like the telemetry log so
        #: the flight recorder survives across workspace invocations.
        self.eventlog = None
        #: Optional live progress sink (see repro.observe.progress). Holds
        #: an open stream, so it is attached per-invocation, never pickled.
        self.progress = None
        #: Storage faults from the plan that already fired (fire-once).
        self._storage_fired: set = set()
        #: Repair seconds from faults fired during a driver-side read
        #: (see :meth:`verify_driver_read`), charged to the next job.
        self._pending_repair_s = 0.0
        #: Crash-consistency attachments (see repro.mapreduce.checkpoint):
        #: a CheckpointManager journaling every wave boundary, and a
        #: CancellationToken polled at task/wave/round boundaries. Both
        #: are per-invocation and never pickled with a workspace.
        self.checkpoint: Optional[CheckpointManager] = None
        self.cancellation: Optional[CancellationToken] = None
        #: Global wave ordinal of this invocation (the checkpoint and
        #: driver-fault key): wave 0 is the first wave dispatched, across
        #: jobs and rounds.
        self._wave_ordinal = 0
        #: Driver faults that already fired, as (wave, plan-pos) pairs.
        self._driver_fired: set = set()

    def __getstate__(self):
        state = self.__dict__.copy()
        # Per-invocation attachments: the progress reporter holds an open
        # stream, and fault plans are chaos tooling — neither belongs in
        # a persisted workspace.
        state["progress"] = None
        state["faults"] = None
        state["_storage_fired"] = set()
        state["_pending_repair_s"] = 0.0
        state["checkpoint"] = None
        state["cancellation"] = None
        state["_wave_ordinal"] = 0
        state["_driver_fired"] = set()
        return state

    def set_tracer(self, tracer) -> None:
        """Swap the tracer (pass ``None`` to disable tracing)."""
        self.tracer = tracer if tracer is not None else _NULL_TRACER

    def set_progress(self, reporter) -> None:
        """Attach a progress reporter (pass ``None`` to detach)."""
        self.progress = reporter

    def set_faults(self, faults) -> None:
        """Attach a fault plan (a :class:`FaultPlan`, spec string or None)."""
        self.faults = resolve_faults(faults)
        self._storage_fired = set()
        self._driver_fired = set()
        self._pending_repair_s = 0.0

    def set_checkpoint(self, manager: Optional[CheckpointManager]) -> None:
        """Arm (or disarm) wave checkpointing for the coming command.

        Resets the global wave ordinal: the journal keys waves by their
        position in *one* command's wave sequence. A manager loaded from
        an interrupted run seeds the driver-fault fire-once set from its
        manifest, so resume never re-fires the crash that killed it.
        """
        self.checkpoint = manager
        self._wave_ordinal = 0
        if manager is not None:
            self._driver_fired |= manager.fired

    def set_cancellation(self, token: Optional[CancellationToken]) -> None:
        """Attach the token polled at task/wave/round boundaries."""
        self.cancellation = token

    def round_boundary(self, operation: str, round_index: int) -> None:
        """Driver-side round boundary of a multi-round operation.

        Wave checkpoints already cover every job inside a round; this
        hook adds the round-granular cancellation point and flight-record
        entry, so a deadline or signal stops *between* rounds even when
        the individual waves are tiny.
        """
        if self.eventlog is not None:
            self.eventlog.emit(
                "debug", "runtime", "round-boundary",
                op=operation, round=round_index,
            )
        if self.tracer.enabled:
            self.tracer.event(
                "round-boundary", kind="checkpoint", volatile=True,
                op=operation, round=round_index,
            )
        self._check_cancel()

    def _check_cancel(self) -> None:
        """Boundary poll: raise if a cancel or deadline asked us to stop."""
        token = self.cancellation
        if token is not None:
            token.check()

    @property
    def workers(self) -> int:
        """Worker processes of the default backend (1 = serial)."""
        return self.executor.workers

    def set_workers(self, workers: Optional[int]) -> None:
        """Swap the default backend for one with ``workers`` processes."""
        self.close()
        self.executor = make_executor(workers)

    def close(self) -> None:
        """Shut down any worker pools this runner created."""
        self.executor.close()

    def _policy(self) -> _WavePolicy:
        """The runner's fault-tolerance and profiling knobs, resolved."""
        log = self.eventlog
        return _WavePolicy(
            max_attempts=max(1, int(self.max_attempts)),
            task_timeout=self.task_timeout,
            speculative=bool(self.speculative),
            slow_task_factor=float(self.slow_task_factor),
            faults=self.faults,
            profile=bool(_profiler.resolve(self.profile)),
            log_level=log.threshold if log is not None else None,
        )

    # ------------------------------------------------------------------
    def run(self, job: Job) -> JobResult:
        """Run ``job`` to completion and return its result.

        When a cancellation token is attached it is installed as the
        process-wide active token for the duration of the job, so the
        executors' task-boundary polls observe it (see
        :func:`repro.mapreduce.checkpoint.check_active`).
        """
        self._check_cancel()
        token = self.cancellation
        if token is None:
            return self._run_job(job)
        set_active_token(token)
        try:
            return self._run_job(job)
        finally:
            set_active_token(None)

    def _run_job(self, job: Job) -> JobResult:
        tracer = self.tracer
        log = self.eventlog
        repair_s = self._apply_storage_faults() + self._pending_repair_s
        self._pending_repair_s = 0.0
        if self.telemetry is not None:
            self.telemetry.scrape("job-start", self.metrics, job=job.name)
        if self.progress is not None:
            self.progress.job_started(job.name, list(job.input_files))
        if log is not None:
            log.emit(
                "info", "runtime", "job-started", job=job.name,
                files=",".join(job.input_files), reducers=job.num_reducers,
            )
        with tracer.span(
            f"job:{job.name}",
            kind="job",
            files=list(job.input_files),
            reducers=job.num_reducers,
        ) as job_span:
            result = self._run_traced(job, job_span)
        if repair_s > 0:
            # Re-replication after a datanode loss competes with the job
            # for cluster I/O; charge it to this job's simulated time.
            result.makespan += repair_s
            result.fault_summary["storage_repair_s"] = repair_s
        if log is not None:
            log.emit(
                "info", "runtime", "job-finished", job=job.name,
                output_records=len(result.output),
                tasks=len(result.map_tasks) + len(result.reduce_tasks),
            )
            # The makespan derives from measured CPU seconds: volatile.
            log.emit(
                "debug", "runtime", "job-timing", job=job.name,
                volatile=True, makespan_s=round(result.makespan, 6),
            )
        if self.progress is not None:
            self.progress.job_finished(job.name, result)
        if self.metrics is not None:
            self._record_metrics(result)
        if self.history is not None:
            self.history.record(
                job.name,
                result,
                cost=self.cluster.job_cost(
                    result.map_tasks,
                    result.reduce_tasks,
                    result.shuffle_records,
                ),
                input_files=list(job.input_files),
            )
        if self.telemetry is not None:
            self.telemetry.scrape(
                "job-end", self.metrics, job=job.name,
                counters=result.counters.as_dict(),
            )
        return result

    def _run_traced(self, job: Job, job_span) -> JobResult:
        counters = Counters()
        splitter = job.splitter or default_splitter
        executor = self.executor
        policy = self._policy()
        tracer = self.tracer
        telemetry = self.telemetry
        rebuilds_before = executor.pool_rebuilds
        #: Phase attribution for the whole job, filled when profiling.
        profile: Dict[str, Dict[str, float]] = {}

        entries: Dict[str, Any] = {}
        for file_name in job.input_files:
            entry = entries.get(file_name)
            if entry is None:
                entry = entries[file_name] = self.fs.get(file_name)
            counters.increment(Counter.BLOCKS_TOTAL, entry.num_blocks)

        with tracer.span("split", kind="phase") as split_span:
            split_t0 = perf_counter() if policy.profile else 0.0
            splits = splitter(self.fs, job)
            counters.increment(Counter.BLOCKS_READ, len(splits))
            pruned = counters.get(Counter.BLOCKS_TOTAL) - len(splits)
            if pruned > 0:
                counters.increment(Counter.BLOCKS_PRUNED, pruned)
            split_span.set("splits", len(splits))
            split_span.set("blocks_total", counters.get(Counter.BLOCKS_TOTAL))
            split_span.set("blocks_pruned", max(0, pruned))
            self._verify_split_reads(splits, split_span, job.name)
            if policy.profile:
                _profiler.merge_into(
                    profile,
                    {"split-fetch": [perf_counter() - split_t0, 1]},
                    "driver",
                )

        output: List[Any] = []
        intermediate: List[Tuple[Any, Any]] = []
        map_stats, fault_summary = self._run_wave(
            job, "map", splits, intermediate.extend,
            counters, output, executor, policy, profile,
        )
        if telemetry is not None:
            telemetry.scrape(
                "wave:map", self.metrics, job=job.name,
                counters=counters.as_dict(),
            )

        reduce_stats: List[TaskStats] = []
        shuffle_records = 0
        if job.reduce_fn is not None:
            shuffle_records = len(intermediate)
            shuffle_t0 = perf_counter() if policy.profile else 0.0
            shuffle_bytes = _RecordSizer().total(intermediate)
            if policy.profile:
                _profiler.merge_into(
                    profile,
                    {"shuffle-serialize": [perf_counter() - shuffle_t0, 1]},
                    "driver",
                )
            counters.increment(Counter.SHUFFLE_RECORDS, shuffle_records)
            counters.increment(Counter.SHUFFLE_BYTES, shuffle_bytes)
            tracer.event(
                "shuffle", records=shuffle_records, bytes=shuffle_bytes
            )
            # Reduce emit() goes to the job output (no later stage).
            reduce_stats, reduce_summary = self._run_wave(
                job, "reduce", _reduce_tasks(job, intermediate),
                lambda pairs: output.extend(v for _, v in pairs),
                counters, output, executor, policy, profile,
            )
            _merge_summary(fault_summary, reduce_summary)
            if telemetry is not None:
                telemetry.scrape(
                    "wave:reduce", self.metrics, job=job.name,
                    counters=counters.as_dict(),
                )
        else:
            # Map-only job: emitted pairs join the direct output.
            output.extend(v for _, v in intermediate)

        if job.commit_fn is not None:
            with tracer.span("commit", kind="phase") as commit_span:
                commit_t0 = perf_counter() if policy.profile else 0.0
                commit_ctx = CommitContext(job, counters, output)
                job.commit_fn(commit_ctx)
                commit_span.set("output_records", len(output))
                if policy.profile:
                    _profiler.merge_into(
                        profile,
                        {"commit": [perf_counter() - commit_t0, 1]},
                        "driver",
                    )

        counters.increment(Counter.OUTPUT_RECORDS, len(output))
        job_span.set("output_records", len(output))
        rebuilds = executor.pool_rebuilds - rebuilds_before
        if rebuilds:
            fault_summary["pool_rebuilds"] = rebuilds
            if self.eventlog is not None:
                # Pool health is backend-dependent by nature: volatile.
                self.eventlog.emit(
                    "warn", "executor", "pool-rebuilt", job=job.name,
                    volatile=True, rebuilds=rebuilds,
                )
        fault_summary = {k: v for k, v in fault_summary.items() if v}
        makespan = self.cluster.job_makespan(
            map_stats, reduce_stats, shuffle_records
        )
        return JobResult(
            output=output,
            counters=counters,
            map_tasks=map_stats,
            reduce_tasks=reduce_stats,
            makespan=makespan,
            fault_summary=fault_summary,
            phase_profile=profile,
        )

    def _verify_split_reads(self, splits, split_span, job_name=None) -> None:
        """Checksum-verify every block about to be read (HDFS read path).

        A replica on a dead node or with a failed checksum is skipped and
        the read fails over to the next healthy copy; only the
        ``READ_FAILOVERS`` / ``BLOCKS_CORRUPT_DETECTED`` metrics and the
        trace notice — the data handed to the map wave is identical, so
        job output and counters stay bit-identical under storage chaos. A
        block with no healthy replica fails the job with a
        :class:`~repro.mapreduce.storage.BlockUnavailableError`.
        """
        failovers = 0
        corrupt = 0
        for split in splits:
            f, c = self.fs.verify_block_read(
                split.file, split.block_index, split.block
            )
            failovers += f
            corrupt += c
        if not failovers and not corrupt:
            return
        split_span.set("read_failovers", failovers)
        if corrupt:
            split_span.set("corrupt_replicas_detected", corrupt)
        if self.eventlog is not None:
            # Which replicas are unhealthy is plan-deterministic, so
            # failover counts are part of the normalized log.
            self.eventlog.emit(
                "warn", "storage", "read-failover", job=job_name,
                failovers=failovers, corrupt=corrupt,
            )
        if self.metrics is not None:
            self.metrics.inc("READ_FAILOVERS", failovers)
            if corrupt:
                self.metrics.inc("BLOCKS_CORRUPT_DETECTED", corrupt)

    def verify_driver_read(self, *names: str) -> None:
        """Checksum-verify whole files the driver reads outside a job.

        Index-aware operations (the distributed join, kNN join) read
        partition records directly in the driver rather than through
        map-input splits. Those reads must go through the same HDFS
        read path as :meth:`_verify_split_reads`: pending storage
        faults fire first, unhealthy replicas fail over to healthy
        copies, and a block with no surviving copy raises
        :class:`~repro.mapreduce.storage.BlockUnavailableError` instead
        of silently serving rotten data. Repair traffic from a fired
        ``losenode`` is banked and charged to the next job's makespan,
        where it would have landed had the job's own split verification
        observed the loss.
        """
        self._pending_repair_s += self._apply_storage_faults()
        failovers = 0
        corrupt = 0
        for name in names:
            f, c = self.fs.verify_file_read(name)
            failovers += f
            corrupt += c
        if not failovers and not corrupt:
            return
        if self.eventlog is not None:
            self.eventlog.emit(
                "warn", "storage", "read-failover",
                files=",".join(names), failovers=failovers, corrupt=corrupt,
            )
        if self.metrics is not None:
            self.metrics.inc("READ_FAILOVERS", failovers)
            if corrupt:
                self.metrics.inc("BLOCKS_CORRUPT_DETECTED", corrupt)

    def _apply_storage_faults(self) -> float:
        """Fire any pending storage faults from the plan (fire-once).

        ``losenode`` fires immediately; ``corruptblock`` waits until its
        target file (and block) exists. Returns the simulated seconds
        the namenode's re-replication traffic cost, to be charged to the
        job that observed the loss.
        """
        plan = self.faults
        if plan is None or not plan.storage:
            return 0.0
        storage = self.fs.storage
        repair_s = 0.0
        for index, fault in enumerate(plan.storage):
            if index in self._storage_fired:
                continue
            if fault.kind == "losenode":
                self._storage_fired.add(index)
                repaired, seconds = storage.lose_node(
                    fault.node, self.fs,
                    io_seconds=self.cluster.per_record_io_s,
                )
                repair_s += seconds
                if self.eventlog is not None:
                    self.eventlog.emit(
                        "warn", "storage", "datanode-lost",
                        node=fault.node, replicas_repaired=repaired,
                    )
                if self.metrics is not None:
                    self.metrics.inc("DATANODES_LOST")
                    if repaired:
                        self.metrics.inc("REPLICAS_REPAIRED", repaired)
            elif fault.kind == "corruptblock" and self.fs.exists(fault.file):
                blocks = self.fs.get(fault.file).blocks
                if fault.block < len(blocks):
                    self._storage_fired.add(index)
                    storage.corrupt_replica(
                        blocks[fault.block], fault.replica
                    )
        return repair_s

    def _record_metrics(self, result: JobResult) -> None:
        """Fold one finished job into the metrics registry."""
        metrics = self.metrics
        metrics.inc("JOBS_TOTAL")
        metrics.merge_counters(result.counters)
        duration = metrics.histogram(
            "task_duration_seconds", TASK_DURATION_BUCKETS
        )
        for task in result.map_tasks:
            duration.observe(task.seconds)
        for task in result.reduce_tasks:
            duration.observe(task.seconds)
        if result.reduce_tasks:
            metrics.observe(
                "shuffle_bytes",
                result.counters.get(Counter.SHUFFLE_BYTES),
                SHUFFLE_BYTES_BUCKETS,
            )
        metrics.set_gauge("last_job_makespan_s", result.makespan)
        # Cumulative per-phase wall seconds. ``profile_`` names are
        # volatile by convention (see repro.observe.telemetry): scrape
        # logs segregate them, keeping the normalized series
        # backend-independent.
        for key, entry in result.phase_profile.items():
            name = "profile_" + key.replace("/", "_").replace("-", "_") + "_s"
            metrics.add_gauge(name, entry["s"])
        fault = result.fault_summary
        if fault:
            for key, name in (
                ("retries", "TASKS_RETRIED"),
                ("speculative", "TASKS_SPECULATIVE"),
                ("timeouts", "TASKS_TIMED_OUT"),
                ("worker_lost", "TASKS_WORKER_LOST"),
                ("corrupt", "TASKS_CORRUPTED"),
                ("crashes", "TASK_CRASHES"),
                ("faults_injected", "FAULTS_INJECTED"),
                ("pool_rebuilds", "POOL_REBUILDS"),
            ):
                if fault.get(key):
                    metrics.inc(name, int(fault[key]))
            if fault.get("backoff_s"):
                metrics.observe(
                    "retry_backoff_seconds",
                    fault["backoff_s"],
                    BACKOFF_SECONDS_BUCKETS,
                )

    # ------------------------------------------------------------------
    # The wave supervisor: retries, timeouts, validation, speculation.
    # ------------------------------------------------------------------
    def _execute_wave(
        self,
        wave: str,
        items: Sequence[Any],
        job: Job,
        executor: Executor,
        policy: _WavePolicy,
    ):
        """Run every task of one wave to a successful attempt.

        Returns ``(results, attempts, summary)``: the winning
        :class:`TaskResult` per task (wave order), the attempt history per
        task, and the wave's fault-activity counts. Raises the original
        task error once a task exhausts ``max_attempts``.

        Retries are batched: each round re-dispatches every task that
        failed the previous round, with its simulated backoff charged to
        the attempt record (and hence the makespan) rather than slept.

        When a checkpoint manager is armed, a journaled wave is
        *replayed* — its recorded result triple returned without
        executing anything — and an executed wave is journaled on its
        way out. Because waves are deterministic and all downstream
        merging is a pure function of the triple, a resumed run is
        bit-identical to an uninterrupted one. Driver faults
        (``crashdriver`` / ``hangdriver``) fire after the commit, and
        the cancellation token is polled at every wave boundary.
        """
        index = self._wave_ordinal
        ckpt = self.checkpoint
        fingerprint = f"{index}|{wave}|{len(items)}"
        if ckpt is not None:
            cached = ckpt.replay(index, fingerprint)
            if cached is not None:
                self._wave_ordinal = index + 1
                self._note_checkpoint("replayed", index, wave)
                self._check_cancel()
                return cached
        n = len(items)
        results: List[Any] = [None] * n
        attempts: List[List[TaskAttempt]] = [[] for _ in range(n)]
        backoff_due: Dict[int, float] = {}
        summary = _new_summary()
        plan_seed = policy.faults.seed if policy.faults is not None else 0
        pending: List[Tuple[int, int]] = [(i, 0) for i in range(n)]
        while pending:
            failed: List[Tuple[int, Exception]] = []
            self._count_injections(wave, pending, policy, summary)
            dispatched = self._dispatch(executor, job, wave, items, pending)
            for (i, attempt), result in zip(pending, dispatched):
                self._absorb(i, attempt, result, results, attempts,
                             backoff_due, failed, policy, summary)
            pending = []
            for i, error in failed:
                next_attempt = len(attempts[i])
                if next_attempt >= policy.max_attempts:
                    raise error
                wait = retry_backoff(
                    _task_id(wave, items[i]), next_attempt, plan_seed
                )
                backoff_due[i] = wait
                summary["retries"] += 1
                summary["backoff_s"] += wait
                pending.append((i, next_attempt))
        if policy.speculative and n >= MIN_SPECULATION_TASKS:
            self._speculate(wave, items, results, attempts, job, executor,
                            policy, summary)
        self._wave_ordinal = index + 1
        if ckpt is not None and ckpt.commit(
            index, fingerprint, (results, attempts, summary)
        ):
            self._note_checkpoint("committed", index, wave)
        self._fire_driver_faults(index, policy)
        self._check_cancel()
        return results, attempts, summary

    def _note_checkpoint(self, action: str, index: int, wave: str) -> None:
        """Record one checkpoint commit/replay across the observability
        layer. Everything here is flagged volatile: whether a wave was
        journaled or replayed is exactly what differs between a clean
        run and a resumed one, so it must never enter the normalized
        trace/log the determinism contract compares."""
        if self.metrics is not None:
            self.metrics.inc(
                "CHECKPOINTS_WRITTEN" if action == "committed"
                else "CHECKPOINTS_REPLAYED"
            )
        if self.tracer.enabled:
            self.tracer.event(
                "checkpoint", kind="checkpoint", volatile=True,
                action=action, wave=index, kind_of_wave=wave,
            )
        if self.eventlog is not None:
            self.eventlog.emit(
                "debug", "checkpoint", f"wave-{action}", volatile=True,
                wave=index, wave_kind=wave,
            )

    def _fire_driver_faults(self, index: int, policy: _WavePolicy) -> None:
        """Fire scripted driver faults at executed wave ``index``.

        Fire-once per (wave, plan-position); the fired key is persisted
        to the checkpoint manifest *before* the fault takes effect, so a
        resumed run — which replays the journaled waves and never
        re-enters this path for them — also never re-fires a wildcard
        fault at an already-survived wave it does re-execute.
        """
        plan = policy.faults
        if plan is None or not plan.driver:
            return
        ckpt = self.checkpoint
        for pos, fault in plan.driver_at(index):
            key = (index, pos)
            if key in self._driver_fired:
                continue
            self._driver_fired.add(key)
            if ckpt is not None:
                ckpt.mark_fired(key)
            if self.metrics is not None:
                self.metrics.inc("DRIVER_FAULTS_INJECTED")
            if fault.kind == "hangdriver":
                seconds = (
                    fault.arg if fault.arg is not None else DEFAULT_HANG_SECONDS
                )
                if self.cancellation is not None:
                    self.cancellation.add_hang(seconds)
                if self.eventlog is not None:
                    self.eventlog.emit(
                        "warn", "checkpoint", "driver-hang-injected",
                        volatile=True, wave=index, seconds=seconds,
                    )
                continue
            # crashdriver: optionally shred the just-committed checkpoint
            # (torn-write simulation), mark the run resumable, then die.
            if ckpt is not None:
                if fault.arg is not None:
                    ckpt.tear_wave_file(index, fault.arg)
                ckpt.interrupt(fault.describe())
            if self.eventlog is not None:
                self.eventlog.emit(
                    "error", "checkpoint", "driver-crash-injected",
                    volatile=True, wave=index,
                )
            raise DriverCrashed(
                f"injected driver crash after wave {index} "
                f"({fault.describe()})"
            )

    @staticmethod
    def _count_injections(wave, pending, policy, summary) -> None:
        """Count scripted faults about to fire in this dispatch round.

        Counted driver-side from the plan (not from failed results)
        so every kind registers — including ``hang``, whose only
        worker-side trace is an inflated CPU charge, and ``kill``,
        whose chunk may be transparently re-dispatched by the pool.
        """
        if policy.faults is None:
            return
        for i, attempt in pending:
            if policy.faults.lookup(wave, i, attempt) is not None:
                summary["faults_injected"] += 1

    def _dispatch(self, executor, job, wave, items, pending):
        """One round of attempts through the executor; results in order."""
        tasks = [(i, attempt, items[i]) for i, attempt in pending]
        num_chunks = (
            executor.workers * CHUNKS_PER_WORKER
            if executor.workers > 1
            else 1
        )
        payloads = [
            (job, wave, chunk) for chunk in _chunked(tasks, num_chunks)
        ]
        results = []
        for chunk_results in executor.map_chunks(_run_chunk, payloads):
            results.extend(chunk_results)
        return results

    @staticmethod
    def _absorb(
        i, attempt, result, results, attempts, backoff_due, failed, policy,
        summary,
    ) -> None:
        """Fold one attempt's result into the wave state."""
        failure = _as_failure(result, attempt)
        timeout = policy.task_timeout
        if (
            failure is None and timeout is not None
            and result.seconds > timeout
        ):
            failure = TaskFailure("timeout", TaskTimeoutError(
                f"task attempt {attempt} charged {result.seconds:.3f}s CPU, "
                f"over the {timeout:.3f}s per-attempt timeout"
            ), result.seconds)
        if failure is None:
            results[i] = result
            attempts[i].append(TaskAttempt(
                attempt=attempt, outcome="success", seconds=result.seconds,
                backoff_s=backoff_due.pop(i, 0.0),
            ))
            return
        summary[_SUMMARY_KEYS[failure.outcome]] += 1
        attempts[i].append(TaskAttempt(
            attempt=attempt, outcome=failure.outcome, seconds=failure.seconds,
            backoff_s=backoff_due.pop(i, 0.0), error=_describe(failure.error),
        ))
        failed.append((i, failure.error))

    def _speculate(
        self, wave, items, results, attempts, job, executor, policy, summary,
    ) -> None:
        """Backup attempts for stragglers; the faster copy wins.

        The batch runtime sees the whole wave before deciding (the
        *simulated* cluster applies the speculation-trigger fraction —
        see :meth:`ClusterModel.wave_span`): tasks slower than
        ``slow_task_factor ×`` the wave median re-run once, and if the
        backup's CPU charge beats the original, the backup's result and
        timing replace it — the original is recorded as
        ``speculative-lost``, mirroring Hadoop killing the slower
        attempt.
        """
        n = len(items)
        winners = [attempts[i][-1].seconds for i in range(n)]
        median = sorted(winners)[n // 2]
        if median <= 0:
            return
        threshold = policy.slow_task_factor * median
        pending = [
            (i, len(attempts[i])) for i in range(n) if winners[i] > threshold
        ]
        if not pending:
            return
        summary["speculative"] += len(pending)
        self._count_injections(wave, pending, policy, summary)
        dispatched = self._dispatch(executor, job, wave, items, pending)
        for (i, attempt), result in zip(pending, dispatched):
            self._absorb_backup(i, attempt, result, results, attempts)

    @staticmethod
    def _absorb_backup(i, attempt, result, results, attempts) -> None:
        """Fold one speculative-backup result in; failures are free.

        The primary attempt already succeeded, so a failed or corrupted
        backup is recorded and ignored — speculation can never make a
        wave fail.
        """
        failure = _as_failure(result, attempt)
        if failure is not None:
            attempts[i].append(TaskAttempt(
                attempt=attempt, outcome=failure.outcome,
                seconds=failure.seconds, speculative=True,
                error=_describe(failure.error),
            ))
            return
        primary = attempts[i][-1]
        won = result.seconds < primary.seconds
        if won:
            primary.outcome = "speculative-lost"
            results[i] = result
        attempts[i].append(TaskAttempt(
            attempt=attempt, outcome="success" if won else "speculative-lost",
            seconds=result.seconds, speculative=True,
        ))

    # ------------------------------------------------------------------
    def _run_wave(
        self,
        job: Job,
        wave: str,
        items: Sequence[Any],
        sink: Callable[[List[Tuple[Any, Any]]], Any],
        counters: Counters,
        output: List[Any],
        executor: Executor,
        policy: _WavePolicy,
        profile: Dict[str, Dict[str, float]],
    ):
        """Run one wave and fold its task results into the job, in order.

        ``items`` are the tasks' inputs (splits, or reduce buckets);
        ``sink`` receives each task's emitted pairs — the shuffle after
        the map wave, the job output after the reduce wave. Returns the
        per-task stats and the wave's fault summary.
        """
        counters.increment(
            Counter.MAP_TASKS if wave == "map" else Counter.REDUCE_TASKS,
            len(items),
        )
        stats: List[TaskStats] = []
        if not items:
            return stats, _new_summary()
        tracer = self.tracer
        progress = self.progress
        log = self.eventlog
        if progress is not None:
            progress.wave_started(job.name, wave, len(items))
        with tracer.span(
            f"wave:{wave}", kind="wave", tasks=len(items)
        ) as span:
            results, attempts, summary = self._execute_wave(
                wave, items, _shipped_job(job, wave, policy), executor, policy
            )
            self._trace_dispatch(executor)
            self._charge_dispatch(executor, policy, profile)
            _annotate_wave(span, summary)
            cursor = span.start
            for item, result, history in zip(items, results, attempts):
                counters.merge_dict(result.counters)
                if policy.profile and result.phases:
                    _profiler.merge_into(profile, result.phases, wave)
                task = TaskStats(
                    task_id=_task_id(wave, item),
                    records_in=result.records_in,
                    records_out=len(result.emitted) + len(result.output),
                    seconds=result.seconds,
                    attempts=_final_attempts(history),
                )
                stats.append(task)
                span_id = None
                if tracer.enabled:
                    cursor, span_id = self._trace_task(
                        task, result.events, cursor
                    )
                if log is not None and result.events:
                    log.absorb(
                        result.events, job=job.name, wave=wave,
                        task=task.task_id, span=span_id,
                    )
                if progress is not None:
                    progress.task_finished(
                        wave, len(stats), len(items),
                        task.records_in, task.records_out,
                    )
                sink(result.emitted)
                output.extend(result.output)
            self._log_wave(job.name, wave, len(stats), summary)
        return stats, summary

    # ------------------------------------------------------------------
    # Trace plumbing. Task spans are laid out on a synthetic timeline —
    # cumulative CPU seconds from the wave's start, in split/bucket
    # order — so a wave reads like a schedule and serial/parallel runs
    # produce identical span sequences (timestamps are normalised away
    # on comparison; see repro.observe.trace). Attempt spans nest under
    # their task span; speculative ones are volatile because which copy
    # wins is timing-dependent by nature.
    # ------------------------------------------------------------------
    def _trace_task(
        self, task: TaskStats, events, cursor
    ) -> Tuple[float, int]:
        attrs = {
            "records_in": task.records_in, "records_out": task.records_out
        }
        attempts = task.attempts
        if attempts:
            attrs["attempts"] = sum(
                1 for a in attempts if not a.speculative
            )
        span_id = self.tracer.add_span(
            f"task:{task.task_id}", "task", cursor, cursor + task.seconds,
            **attrs
        )
        offset = cursor
        for a in attempts:
            start = offset + a.backoff_s
            a_attrs = {"outcome": a.outcome}
            if a.backoff_s:
                a_attrs["backoff_s"] = round(a.backoff_s, 6)
            if a.error:
                a_attrs["error"] = a.error
            self.tracer.add_span(
                f"attempt:{task.task_id}#{a.attempt}", "attempt",
                start, start + a.seconds,
                parent_id=span_id, volatile=a.speculative, **a_attrs,
            )
            if not a.speculative:
                offset = start + a.seconds
        for event in events:
            if "log" in event:  # ctx.log records: the event log's, not ours
                continue
            self.tracer.event(
                event["name"], parent_id=span_id, **event["attrs"]
            )
        return cursor + task.seconds, span_id

    def _log_wave(self, job_name, wave, tasks, summary) -> None:
        """Wave-boundary event-log records (after task logs absorbed).

        Retry/timeout/corruption counts are plan-deterministic — the
        same faults fire on every backend — so they join the normalized
        log; speculation outcomes depend on measured CPU and stay
        volatile.
        """
        log = self.eventlog
        if log is None:
            return
        log.emit(
            "info", "runtime", "wave-finished",
            job=job_name, wave=wave, tasks=tasks,
            span=self.tracer.current_span_id(),
        )
        faults = {
            key: int(summary[key])
            for key in ("retries", "timeouts", "corrupt", "worker_lost",
                        "faults_injected")
            if summary.get(key)
        }
        if faults:
            log.emit(
                "warn", "runtime", "wave-faults",
                job=job_name, wave=wave, **faults,
            )
        if summary.get("speculative"):
            log.emit(
                "warn", "runtime", "wave-speculation",
                job=job_name, wave=wave, volatile=True,
                backups=int(summary["speculative"]),
            )

    def _trace_dispatch(self, executor: Executor) -> None:
        """Record how the wave was dispatched, as volatile diagnostics.

        Backend, worker count and chunking legitimately differ between
        serial and parallel runs, so this event is flagged volatile and
        dropped by trace normalisation — visible in raw traces, excluded
        from the determinism contract.
        """
        if not self.tracer.enabled:
            return
        info = executor.last_dispatch or {}
        self.tracer.event(
            "dispatch",
            kind="dispatch",
            volatile=True,
            backend=executor.name,
            workers=executor.workers,
            **info,
        )

    @staticmethod
    def _charge_dispatch(executor: Executor, policy, profile) -> None:
        """Charge the wave's chunk-serialization time to the profile.

        The parallel executor measures how long it spent pickling and
        submitting chunks (``submit_s`` in its dispatch diagnostics);
        that *is* the driver's shuffle-serialize cost. Serial dispatch
        has no serialization, so nothing is charged.
        """
        if not policy.profile or profile is None:
            return
        submit_s = (executor.last_dispatch or {}).get("submit_s")
        if submit_s:
            _profiler.merge_into(
                profile, {"shuffle-serialize": [submit_s, 1]}, "driver"
            )


def _new_summary() -> Dict[str, float]:
    return {
        "retries": 0,
        "timeouts": 0,
        "corrupt": 0,
        "worker_lost": 0,
        "crashes": 0,
        "speculative": 0,
        "faults_injected": 0,
        "backoff_s": 0.0,
    }


def _merge_summary(into: Dict[str, float], other: Dict[str, float]) -> None:
    for key, value in other.items():
        into[key] = into.get(key, 0) + value


def _annotate_wave(wave_span, summary: Dict[str, float]) -> None:
    """Attach non-zero fault counts to the wave span.

    These counts are plan-deterministic (the same faults fire on every
    backend), so they are part of the normal — not volatile — trace.
    """
    for key in ("retries", "timeouts", "corrupt", "worker_lost",
                "speculative"):
        if summary.get(key):
            wave_span.set(f"tasks_{key}", int(summary[key]))


def _describe(error: Exception) -> str:
    return f"{type(error).__name__}: {error}"


def _reduce_tasks(
    job: Job, intermediate: List[Tuple[Any, Any]]
) -> List[Tuple[int, List[Tuple[Any, List[Any]]]]]:
    """The shuffle: non-empty reduce buckets as ``(bucket, groups)`` items."""
    num_reducers = max(1, job.num_reducers)
    buckets: List[Dict[Any, List[Any]]] = [{} for _ in range(num_reducers)]
    for k, v in intermediate:
        index = job.partitioner(k, num_reducers) if num_reducers > 1 else 0
        buckets[index].setdefault(k, []).append(v)
    return [
        (task_index, list(bucket.items()))
        for task_index, bucket in enumerate(buckets)
        if bucket
    ]


def _final_attempts(records: List[TaskAttempt]) -> List[TaskAttempt]:
    """Attempt history worth keeping: anything beyond one clean success."""
    if (
        len(records) == 1
        and records[0].outcome == "success"
        and records[0].backoff_s == 0.0
    ):
        return []
    return records


def _sorted_items(
    items: List[Tuple[Any, List[Any]]]
) -> List[Tuple[Any, List[Any]]]:
    """Key-grouped items in key order when comparable, as given otherwise.

    Combiner and map output groups usually arrive already key-sorted (or
    nearly so); the linear pre-scan skips the re-sort — and its copy — in
    that common case.
    """
    try:
        for i in range(len(items) - 1):
            if items[i + 1][0] < items[i][0]:
                return sorted(items, key=lambda kv: kv[0])
        return items
    except TypeError:
        return items

