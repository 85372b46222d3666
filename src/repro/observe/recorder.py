"""The runtime's one observability object.

The MapReduce loop reports four kinds of thing: a job starts, a wave
finishes, a job finishes, and a named *driver fact* happened (a
checkpoint was committed or replayed, a round ended, a read failed over,
a datanode was lost, a scripted driver fault fired, the worker pool was
rebuilt). :class:`Recorder` owns the seven channels — tracer, event log,
metrics, job history, telemetry, progress and the profiling switch — and
fans each report out to them. It is the only place that knows how a
fact is spelled on each channel: its metric name, trace event and
attributes, log level, component and ``volatile`` flag.

Every channel is optional. An unarmed one (``None``, or the shared null
tracer) costs one attribute test per report, so the facade's default
path — metrics and history only — does no more per job than fold the
result into both.

The determinism contract is the channels' own: per-task trace spans and
task log records are written in split/bucket order from the merged wave,
so serial and ``workers=N`` runs produce the same normalized streams.
Anything that depends on timing or backend (dispatch diagnostics,
speculation, checkpoint activity, pool health) is flagged volatile.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.mapreduce.faults import fault_summary
from repro.observe.metrics import (
    BACKOFF_SECONDS_BUCKETS,
    SHUFFLE_BYTES_BUCKETS,
    TASK_DURATION_BUCKETS,
)
from repro.observe.trace import NullTracer

#: Shared no-op tracer: tracing costs nothing until a live one is set.
NULL_TRACER = NullTracer()
_NULL_SPAN = NULL_TRACER.span("")

#: Fault-summary keys set on a wave's span as ``tasks_<key>``. They are
#: plan-deterministic (the same faults fire on every backend), so they
#: are part of the normal, not the volatile, trace.
_SPAN_FAULTS = ("retries", "timeouts", "corrupt", "worker_lost", "speculative")

#: Fault-summary keys of the ``wave-faults`` log record (plan-deterministic
#: too; speculation depends on measured CPU and is logged volatile).
_LOG_FAULTS = ("retries", "timeouts", "corrupt", "worker_lost",
               "faults_injected")

#: Fault-summary key -> cumulative metric counter.
_FAULT_COUNTERS = (
    ("retries", "TASKS_RETRIED"),
    ("speculative", "TASKS_SPECULATIVE"),
    ("timeouts", "TASKS_TIMED_OUT"),
    ("worker_lost", "TASKS_WORKER_LOST"),
    ("corrupt", "TASKS_CORRUPTED"),
    ("crashes", "TASK_CRASHES"),
    ("faults_injected", "FAULTS_INJECTED"),
    ("pool_rebuilds", "POOL_REBUILDS"),
)


class Recorder:
    """Writes the runtime's job, wave and driver facts to every channel.

    ``tracer`` defaults to the null tracer; ``metrics`` (a
    :class:`~repro.observe.MetricsRegistry`) and ``history`` (a
    :class:`~repro.observe.JobHistory`) default to off. ``telemetry``,
    ``eventlog`` and ``progress`` are attached later by the facade.
    ``profile`` is the profiling default: True/False forces it, None
    defers to ``$REPRO_PROFILE`` (read per job, so tests can flip it).
    """

    def __init__(self, tracer=None, metrics=None, history=None,
                 profile: Optional[bool] = None):
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.history = history
        #: Wave-boundary scrape log (see repro.observe.telemetry). Plain
        #: data, pickled, so the time series accumulates across workspace
        #: invocations.
        self.telemetry = None
        #: Structured event log (see repro.observe.log); ring-buffer
        #: bounded and pickled like the telemetry log.
        self.eventlog = None
        #: Live progress sink (see repro.observe.progress). It holds an
        #: open stream, so it is attached per invocation, never pickled.
        self.progress = None
        self.profile = profile

    def __getstate__(self):
        state = self.__dict__.copy()
        state["progress"] = None
        return state

    # ------------------------------------------------------------------
    # Emission outside the runtime (facade, query service)
    # ------------------------------------------------------------------
    def log(self, level: str, component: str, event: str,
            **attrs: Any) -> None:
        """One event-log record; free when no log is attached."""
        if self.eventlog is not None:
            self.eventlog.emit(level, component, event, **attrs)

    def scrape(self, event: str) -> None:
        """One telemetry scrape of the metrics registry."""
        if self.telemetry is not None:
            self.telemetry.scrape(event, self.metrics)

    # ------------------------------------------------------------------
    # Job and wave boundaries
    # ------------------------------------------------------------------
    def job_started(self, job):
        """A job is about to run; returns its trace span to enter."""
        if self.telemetry is not None:
            self.telemetry.scrape("job-start", self.metrics, job=job.name)
        if self.progress is not None:
            self.progress.job_started(job.name, list(job.input_files))
        if self.eventlog is not None:
            self.eventlog.emit(
                "info", "runtime", "job-started", job=job.name,
                files=",".join(job.input_files), reducers=job.num_reducers,
            )
        return self.tracer.span(
            f"job:{job.name}", kind="job",
            files=list(job.input_files), reducers=job.num_reducers,
        )

    def wave_started(self, job_name: str, wave: str, tasks: int):
        """A wave of ``tasks`` is about to run; returns its trace span.

        An empty wave runs nothing and opens no span.
        """
        if not tasks:
            return _NULL_SPAN
        if self.progress is not None:
            self.progress.wave_started(job_name, wave, tasks)
        return self.tracer.span(f"wave:{wave}", kind="wave", tasks=tasks)

    def wave_finished(self, job_name, wave, span, results, stats, attempts,
                      plan, executor, counters) -> None:
        """One merged wave: per-task spans, logs and progress, in order.

        Called inside the wave's span with the winning task results, the
        :class:`TaskStats` built from them and the attempt histories (in
        split/bucket order), the fault plan, the executor that dispatched
        the wave and the job's counters after the merge.
        """
        tracer, log, progress = self.tracer, self.eventlog, self.progress
        if stats and (tracer.enabled or log is not None
                      or progress is not None):
            summary = fault_summary(plan, [(wave, attempts)])
            if tracer.enabled:
                # Backend, worker count and chunking differ between serial
                # and parallel runs by nature: volatile diagnostics.
                tracer.event(
                    "dispatch", kind="dispatch", volatile=True,
                    backend=executor.name, workers=executor.workers,
                    **(executor.last_dispatch or {}),
                )
            for key in _SPAN_FAULTS:
                if summary.get(key):
                    span.set(f"tasks_{key}", int(summary[key]))
            cursor = span.start
            for done, (result, task) in enumerate(zip(results, stats), 1):
                span_id = None
                if tracer.enabled:
                    span_id = self._trace_task(task, result.events, cursor)
                    cursor += task.seconds
                if log is not None and result.events:
                    log.absorb(result.events, job=job_name, wave=wave,
                               task=task.task_id, span=span_id)
                if progress is not None:
                    progress.task_finished(wave, done, len(stats),
                                           task.records_in, task.records_out)
            if log is not None:
                self._log_wave(job_name, wave, len(stats), summary)
        if self.telemetry is not None:
            self.telemetry.scrape(f"wave:{wave}", self.metrics, job=job_name,
                                  counters=counters.as_dict())

    def job_finished(self, job, result, cluster) -> None:
        """A job completed: log it, fold it into metrics and history."""
        log = self.eventlog
        if log is not None:
            log.emit(
                "info", "runtime", "job-finished", job=job.name,
                output_records=len(result.output),
                tasks=len(result.map_tasks) + len(result.reduce_tasks),
            )
            # The makespan derives from measured CPU seconds: volatile.
            log.emit("debug", "runtime", "job-timing", job=job.name,
                     volatile=True, makespan_s=round(result.makespan, 6))
        if self.progress is not None:
            self.progress.job_finished(job.name, result)
        if self.metrics is not None:
            self._fold_metrics(result)
        if self.history is not None:
            self.history.record(
                job.name, result,
                cost=cluster.job_cost(result.map_tasks, result.reduce_tasks,
                                      result.shuffle_records),
                input_files=list(job.input_files),
            )
        if self.telemetry is not None:
            self.telemetry.scrape("job-end", self.metrics, job=job.name,
                                  counters=result.counters.as_dict())

    # ------------------------------------------------------------------
    # Driver facts
    # ------------------------------------------------------------------
    def note(self, fact: str, span=None, **attrs: Any) -> None:
        """Record one named driver fact on every channel that carries it.

        ``checkpoint`` (action, wave, wave_kind) and the scripted
        ``driver-fault`` (kind, wave[, seconds]) are volatile: they are
        what differs between a clean run and a resumed one.
        ``round-boundary`` (op, round), ``read-failover`` (job or files,
        failovers, corrupt; ``span`` is the split span, if any),
        ``datanode-lost`` (node, replicas_repaired) and ``pool-rebuilt``
        (job, rebuilds; backend-dependent, so volatile) complete the set.
        """
        metrics, tracer, log = self.metrics, self.tracer, self.eventlog
        if fact == "checkpoint":
            action, wave = attrs["action"], attrs["wave"]
            kind = attrs["wave_kind"]
            if metrics is not None:
                metrics.inc("CHECKPOINTS_WRITTEN" if action == "committed"
                            else "CHECKPOINTS_REPLAYED")
            if tracer.enabled:
                tracer.event("checkpoint", kind="checkpoint", volatile=True,
                             action=action, wave=wave, kind_of_wave=kind)
            if log is not None:
                log.emit("debug", "checkpoint", f"wave-{action}",
                         volatile=True, wave=wave, wave_kind=kind)
        elif fact == "round-boundary":
            if log is not None:
                log.emit("debug", "runtime", "round-boundary", **attrs)
            if tracer.enabled:
                tracer.event("round-boundary", kind="checkpoint",
                             volatile=True, **attrs)
        elif fact == "read-failover":
            # Which replicas are unhealthy is plan-deterministic, so the
            # counts are part of the normalized log and trace.
            failovers, corrupt = attrs["failovers"], attrs["corrupt"]
            if span is not None:
                span.set("read_failovers", failovers)
                if corrupt:
                    span.set("corrupt_replicas_detected", corrupt)
            if log is not None:
                log.emit("warn", "storage", "read-failover", **attrs)
            if metrics is not None:
                metrics.inc("READ_FAILOVERS", failovers)
                if corrupt:
                    metrics.inc("BLOCKS_CORRUPT_DETECTED", corrupt)
        elif fact == "datanode-lost":
            if log is not None:
                log.emit("warn", "storage", "datanode-lost", **attrs)
            repaired = attrs["replicas_repaired"]
            if metrics is not None:
                metrics.inc("DATANODES_LOST")
                if repaired:
                    metrics.inc("REPLICAS_REPAIRED", repaired)
        elif fact == "driver-fault":
            if metrics is not None:
                metrics.inc("DRIVER_FAULTS_INJECTED")
            if log is not None and attrs["kind"] == "hangdriver":
                log.emit("warn", "checkpoint", "driver-hang-injected",
                         volatile=True, wave=attrs["wave"],
                         seconds=attrs["seconds"])
            elif log is not None:
                log.emit("error", "checkpoint", "driver-crash-injected",
                         volatile=True, wave=attrs["wave"])
        elif fact == "pool-rebuilt":
            if log is not None:
                log.emit("warn", "executor", "pool-rebuilt", volatile=True,
                         **attrs)
        else:
            raise ValueError(f"unknown driver fact {fact!r}")

    # ------------------------------------------------------------------
    # Channel spellings
    # ------------------------------------------------------------------
    def _trace_task(self, task, events, cursor: float) -> int:
        """A task span on the wave's synthetic timeline, with attempts.

        Task spans are laid out as cumulative CPU seconds from the wave's
        start, in split/bucket order, so a wave reads like a schedule and
        serial/parallel runs produce identical span sequences. Attempt
        spans nest under their task span; speculative ones are volatile
        because which copy wins is timing-dependent.
        """
        tracer = self.tracer
        attrs = {"records_in": task.records_in,
                 "records_out": task.records_out}
        attempts = task.attempts
        if attempts:
            attrs["attempts"] = sum(1 for a in attempts if not a.speculative)
        span_id = tracer.add_span(
            f"task:{task.task_id}", "task", cursor, cursor + task.seconds,
            **attrs
        )
        offset = cursor
        for a in attempts:
            start = offset + a.backoff_s
            a_attrs: Dict[str, Any] = {"outcome": a.outcome}
            if a.backoff_s:
                a_attrs["backoff_s"] = round(a.backoff_s, 6)
            if a.error:
                a_attrs["error"] = a.error
            tracer.add_span(
                f"attempt:{task.task_id}#{a.attempt}", "attempt",
                start, start + a.seconds,
                parent_id=span_id, volatile=a.speculative, **a_attrs,
            )
            if not a.speculative:
                offset = start + a.seconds
        for event in events:
            if "log" in event:  # ctx.log records: the event log's, not ours
                continue
            tracer.event(event["name"], parent_id=span_id, **event["attrs"])
        return span_id

    def _log_wave(self, job_name, wave, tasks, summary) -> None:
        """Wave-boundary records, after the wave's task logs."""
        log = self.eventlog
        log.emit("info", "runtime", "wave-finished", job=job_name, wave=wave,
                 tasks=tasks, span=self.tracer.current_span_id())
        faults = {key: int(summary[key])
                  for key in _LOG_FAULTS if summary.get(key)}
        if faults:
            log.emit("warn", "runtime", "wave-faults",
                     job=job_name, wave=wave, **faults)
        if summary.get("speculative"):
            log.emit("warn", "runtime", "wave-speculation", job=job_name,
                     wave=wave, volatile=True,
                     backups=int(summary["speculative"]))

    def _fold_metrics(self, result) -> None:
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
            metrics.observe("shuffle_bytes",
                            result.counters.get("SHUFFLE_BYTES"),
                            SHUFFLE_BYTES_BUCKETS)
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
            for key, name in _FAULT_COUNTERS:
                if fault.get(key):
                    metrics.inc(name, int(fault[key]))
            if fault.get("backoff_s"):
                metrics.observe("retry_backoff_seconds", fault["backoff_s"],
                                BACKOFF_SECONDS_BUCKETS)
