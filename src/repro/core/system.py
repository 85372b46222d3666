"""The SpatialHadoop facade: the library's main entry point.

Wraps a simulated cluster (file system + job runner) behind the workflow a
SpatialHadoop user follows: *load* files, *index* them with a partitioning
technique, then run *spatial operations* that exploit the index. Every
operation returns an :class:`~repro.core.result.OperationResult` carrying
the answer, the MapReduce rounds executed, and the simulated makespan.

    >>> from repro import SpatialHadoop
    >>> from repro.datagen import generate_points
    >>> from repro.geometry import Rectangle
    >>> sh = SpatialHadoop(num_nodes=8)
    >>> sh.load("pts", generate_points(10_000, "uniform", seed=1))
    >>> sh.index("pts", "pts_idx", technique="str")
    >>> result = sh.range_query("pts_idx", Rectangle(0, 0, 1e5, 1e5))
    >>> len(result.answer), result.blocks_read  # doctest: +SKIP
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable, List, Optional

from repro.core.result import OperationResult
from repro.geometry import Point, Rectangle
from repro.geometry.wkt import WKTParseError, parse_wkt
from repro.index.build import IndexBuildResult, build_index
from repro.mapreduce import ClusterModel, FileSystem, JobRunner
from repro.mapreduce.storage import FsckReport, run_fsck
from repro.observe import JobHistory, MetricsRegistry, Recorder, Tracer
from repro.observe.recorder import NULL_TRACER

if TYPE_CHECKING:  # lazy imports below avoid the observe -> explain cycle
    from repro.mapreduce.checkpoint import (
        CancellationToken,
        CheckpointManager,
    )
    from repro.observe import Diagnosis, ProgressReporter, TelemetryLog
    from repro.observe.explain import Explanation
    from repro.observe.log import EventLog
    from repro.serve import QueryService


class SpatialHadoop:
    """A simulated SpatialHadoop deployment."""

    def __init__(
        self,
        num_nodes: int = 25,
        block_capacity: int = 10_000,
        job_overhead_s: float = 0.5,
        workers: Optional[int] = None,
        max_attempts: Optional[int] = None,
        task_timeout: Optional[float] = None,
        speculative: bool = False,
        faults: Any = None,
        replication: int = 3,
    ):
        """``workers`` picks the execution backend: 1 (default) runs tasks
        serially in-process; >1 runs each map/reduce wave across that many
        worker processes. ``None`` defers to the ``REPRO_WORKERS``
        environment variable. Backends are output-equivalent; only real
        wall-clock changes, never results or simulated makespans.

        ``max_attempts``, ``task_timeout``, ``speculative`` and ``faults``
        configure the fault-tolerance layer (see :class:`JobRunner`);
        ``faults`` accepts a :class:`~repro.mapreduce.FaultPlan` or a spec
        string and defaults to ``$REPRO_FAULTS``.

        ``replication`` is the HDFS-style replica count: every block is
        checksummed and placed as (up to) that many copies across the
        cluster's datanodes, so reads survive ``losenode`` /
        ``corruptblock`` faults (see :meth:`fsck`)."""
        self.fs = FileSystem(
            default_block_capacity=block_capacity,
            num_datanodes=num_nodes,
            replication=replication,
        )
        self.cluster = ClusterModel(
            num_nodes=num_nodes, job_overhead_s=job_overhead_s
        )
        runner_kwargs: dict = {}
        if max_attempts is not None:
            runner_kwargs["max_attempts"] = max_attempts
        self.runner = JobRunner(
            self.fs,
            self.cluster,
            workers=workers,
            recorder=Recorder(metrics=MetricsRegistry(), history=JobHistory()),
            task_timeout=task_timeout,
            speculative=speculative,
            faults=faults,
            **runner_kwargs,
        )

    # ------------------------------------------------------------------
    # Observability: every channel lives on the runner's one recorder.
    # Every job the runner finishes lands in ``history`` and ``metrics``;
    # ``tracer`` is a no-op until :meth:`enable_tracing` sets a live one.
    # ------------------------------------------------------------------
    @property
    def tracer(self):
        return self.runner.recorder.tracer

    @property
    def metrics(self) -> MetricsRegistry:
        return self.runner.recorder.metrics

    @property
    def history(self) -> JobHistory:
        return self.runner.recorder.history

    def enable_tracing(self) -> Tracer:
        """Start span tracing and return the live tracer.

        Every subsequent job, index build, operation and Pigeon statement
        records spans. Call :meth:`disable_tracing` to go back to the
        zero-overhead default.
        """
        if not self.tracer.enabled:
            self.runner.recorder.tracer = Tracer()
        return self.tracer

    def disable_tracing(self) -> None:
        self.runner.recorder.tracer = NULL_TRACER

    def history_report(self, last: Optional[int] = None) -> str:
        """The Hadoop-JobHistory-style text report of retained jobs."""
        return self.history.report(last=last)

    def telemetry(self) -> "TelemetryLog":
        """The wave-boundary scrape log, attaching one if none exists.

        Once attached, the runner snapshots the metrics registry (plus
        the running job's counters) at every job start, wave boundary and
        job end. The log is plain data and pickles with the workspace, so
        scrapes accumulate across CLI invocations until
        :meth:`TelemetryLog.clear` or export.
        """
        from repro.observe import TelemetryLog

        recorder = self.runner.recorder
        if recorder.telemetry is None:
            recorder.telemetry = TelemetryLog()
        return recorder.telemetry

    def eventlog(self, level: Optional[str] = None) -> "EventLog":
        """The structured event log, attaching one if none exists.

        Once attached, the runner (and the facade's load/index/fsck
        paths) append leveled, structured records — the flight recorder.
        Like the telemetry log it is plain data and pickles with the
        workspace, ring-buffer bounded, so the record survives across
        CLI invocations. ``level`` (debug/info/warn/error) adjusts the
        threshold of an existing log too.
        """
        from repro.observe.log import EventLog

        recorder = self.runner.recorder
        log = recorder.eventlog
        if log is None:
            log = recorder.eventlog = EventLog(level=level or "info")
        elif level is not None:
            log.level = level
        return log

    def disable_eventlog(self) -> None:
        """Detach the event log (subsequent jobs emit nothing)."""
        self.runner.recorder.eventlog = None

    def openmetrics(self, prefix: str = "repro_") -> str:
        """Current metrics in OpenMetrics/Prometheus text exposition.

        Labels every sample with the execution backend (``workers``), so
        scrapes from different backends stay distinguishable in one store.
        """
        from repro.observe import render_openmetrics

        return render_openmetrics(
            self.metrics.snapshot(),
            prefix=prefix,
            labels={"workers": str(self.runner.workers)},
        )

    def enable_profiling(self) -> None:
        """Turn per-phase task profiling on for subsequent jobs.

        Adds a phase breakdown (split-fetch, columnar decode, kernel,
        R-tree probe, shuffle-serialize, commit ...) to every
        ``JobResult``, the history report and ANALYZE actuals. Costs a
        few timer reads per task phase; off by default.
        """
        self.runner.recorder.profile = True

    def disable_profiling(self) -> None:
        self.runner.recorder.profile = False

    def enable_progress(self, stream: Any = None) -> "ProgressReporter":
        """Stream live wave/task progress to ``stream`` (default stderr).

        The reporter is attached per-invocation: it holds an open stream,
        so it is never pickled with a workspace — call
        :meth:`disable_progress` (or drop the facade) when done.
        """
        from repro.observe import ProgressReporter

        reporter = self.runner.recorder.progress = ProgressReporter(stream)
        return reporter

    def disable_progress(self) -> None:
        self.runner.recorder.progress = None

    # ------------------------------------------------------------------
    # Crash recovery: wave checkpointing, resume, deadlines
    # ------------------------------------------------------------------
    def enable_checkpoints(
        self,
        directory: Any,
        argv: Optional[List[str]] = None,
        workspace: str = "",
        deadline: Optional[float] = None,
    ) -> "CheckpointManager":
        """Arm crash-consistent wave checkpointing for subsequent jobs.

        Starts a fresh journal at ``directory`` (clearing any stale one)
        and attaches it to the runner: every map/reduce wave appends its
        results to the run's wave log as one CRC-framed frame, and a
        manifest records the command, fault plan position and per-wave
        state needed for :meth:`resume` to replay the run
        bit-identically. Off by default — the journal costs one
        columnar-packed pickle and one ``write`` to an open append-only
        file per wave, with no per-wave file and no rename (see
        ``BENCH_e16.json``).
        """
        from repro.mapreduce.checkpoint import CheckpointManager

        plan = self.runner.faults
        manager = CheckpointManager.create(
            directory,
            argv=list(argv or []),
            workspace=workspace,
            faults=plan.describe() if plan is not None else None,
            workers=self.runner.workers,
            deadline=deadline,
        )
        self.runner.set_checkpoint(manager)
        self.runner.recorder.log(
            "info", "checkpoint", "checkpoints-enabled",
            volatile=True, directory=str(manager.directory),
        )
        return manager

    def resume(self, directory: Any) -> "CheckpointManager":
        """Attach the journal of an interrupted run for resumption.

        Validates the journal with the fsck machinery first (a corrupt
        manifest raises :class:`~repro.mapreduce.checkpoint.
        CheckpointCorruptError`; corrupt wave frames and a torn log tail
        are dropped and their waves re-executed), then arms the runner
        so already-committed waves are *replayed* from the journal
        instead of re-executed, and injected driver faults that already
        fired are not re-fired. Re-running the recorded command
        afterwards yields results, counters and normalized traces
        identical to an uninterrupted run.
        """
        from repro.mapreduce.checkpoint import (
            CheckpointManager,
            fsck_checkpoints,
        )

        fsck_checkpoints(directory, repair=True)
        manager = CheckpointManager.load(directory)
        self.runner.set_checkpoint(manager)
        self.metrics.inc("RESUMES")
        self.runner.recorder.log(
            "info", "checkpoint", "run-resumed", volatile=True,
            directory=str(manager.directory),
            waves_available=manager.waves_available,
        )
        return manager

    def disable_checkpoints(self) -> None:
        """Detach the checkpoint journal (subsequent waves not journaled)."""
        self.runner.set_checkpoint(None)

    def set_deadline(
        self, seconds: Optional[float]
    ) -> Optional["CancellationToken"]:
        """Install a cooperative deadline for subsequent jobs.

        The runner polls the token between tasks and at wave/round
        boundaries; past the deadline the current command stops at the
        next boundary with :class:`~repro.mapreduce.checkpoint.
        DeadlineExceeded`, after persisting a resumable checkpoint (when
        armed) and cleaning up pools and shared memory. ``None`` removes
        any existing token.
        """
        from repro.mapreduce.checkpoint import CancellationToken

        if seconds is None:
            self.runner.set_cancellation(None)
            return None
        token = CancellationToken(deadline_s=seconds)
        self.runner.set_cancellation(token)
        return token

    def serve(self, **kwargs: Any) -> "QueryService":
        """A multi-tenant query service fronting this workspace.

        Keyword arguments pass through to :class:`~repro.serve.service.
        QueryService` (``config``, ``quotas``, ``default_quota``); the
        service shares this facade's file system, cluster model, metrics
        and event log, so its admission decisions are charged in the
        same simulated currency as every operation.
        """
        from repro.serve import QueryService

        return QueryService(self, **kwargs)

    def explain(self, query_text: str) -> "Explanation":
        """EXPLAIN: the plan tree for a query, without executing it."""
        from repro.observe import explain

        return explain.explain_query(self, query_text)

    def analyze(self, query_text: str) -> "Explanation":
        """ANALYZE: execute the query and annotate the plan with actuals."""
        from repro.observe import explain

        return explain.analyze_query(self, query_text)

    def doctor(
        self, file_name: str, block_capacity: Optional[int] = None
    ) -> "Diagnosis":
        """Run the index doctor over an indexed file.

        Job history rides along so retry-prone partitions (map tasks
        that keep failing) show up as findings.
        """
        from repro.observe import diagnose

        return diagnose(
            self.fs,
            file_name,
            block_capacity=block_capacity,
            history=self.history,
        )

    # ------------------------------------------------------------------
    # Storage layer
    # ------------------------------------------------------------------
    def load(
        self,
        name: str,
        records: Iterable[Any],
        block_capacity: Optional[int] = None,
        on_bad_record: str = "raise",
    ) -> None:
        """Upload records as a heap file (plain Hadoop loader).

        String records are parsed as WKT. ``on_bad_record`` picks the
        ingest policy for malformed text:

        * ``"raise"`` (default) — the first bad record aborts the load
          with a :class:`~repro.geometry.wkt.WKTParseError`;
        * ``"skip"`` — bad records are dropped and counted in the
          workspace-level ``BAD_RECORDS_SKIPPED`` metric;
        * ``"quarantine"`` — like ``skip``, but the offending raw texts
          are also written to a ``<name>.quarantine`` side file for
          later inspection.
        """
        if on_bad_record not in ("raise", "skip", "quarantine"):
            raise ValueError(
                "on_bad_record must be 'raise', 'skip' or 'quarantine', "
                f"not {on_bad_record!r}"
            )
        quarantined: List[str] = []

        def parsed():
            for record in records:
                if not isinstance(record, str):
                    yield record
                    continue
                try:
                    yield parse_wkt(record)
                except WKTParseError:
                    if on_bad_record == "raise":
                        raise
                    quarantined.append(record)

        self.fs.create_file(name, parsed(), block_capacity=block_capacity)
        if quarantined:
            self.metrics.inc("BAD_RECORDS_SKIPPED", len(quarantined))
            if on_bad_record == "quarantine":
                side = f"{name}.quarantine"
                if self.fs.exists(side):
                    self.fs.delete(side)
                self.fs.create_file(side, quarantined)
        entry = self.fs.get(name)
        self.runner.recorder.log(
            "warn" if quarantined else "info", "fs", "file-loaded",
            file=name, records=entry.num_records, blocks=entry.num_blocks,
            bad_records=len(quarantined),
        )

    def index(
        self,
        input_file: str,
        output_file: str,
        technique: str = "str",
        **kwargs: Any,
    ) -> IndexBuildResult:
        """Build a spatial index over ``input_file`` (see :func:`build_index`)."""
        result = build_index(
            self.runner, input_file, output_file, technique, **kwargs
        )
        self.runner.recorder.log(
            "info", "index", "index-built",
            file=output_file, technique=technique,
            cells=len(result.global_index.cells),
        )
        return result

    def records(self, name: str) -> List[Any]:
        """Full contents of a file (test/debug helper)."""
        return self.fs.read_records(name)

    def fsck(
        self, repair: bool = False, checkpoint_dir: Any = None
    ) -> FsckReport:
        """Verify (and optionally repair) every file's storage health.

        Walks all blocks checking payload checksums, replica placement
        and local/global-index integrity, exactly like ``hdfs fsck``.
        With ``repair=True``, corrupt and under-replicated blocks are
        re-replicated from surviving healthy copies and damaged local
        indexes are rebuilt from the block's records. The run is
        recorded in the job-history report and the
        ``FSCK_RUNS`` / ``BLOCKS_CORRUPT_DETECTED`` /
        ``REPLICAS_REPAIRED`` metrics. ``checkpoint_dir`` additionally
        audits a crash-recovery journal (``checkpoint-*`` issue codes;
        with ``repair=True`` corrupt wave files are deleted so resume
        re-executes them).
        """
        report = run_fsck(
            self.fs,
            repair=repair,
            metrics=self.metrics,
            checkpoint_dir=checkpoint_dir,
        )
        self.history.record_fsck(report.summary())
        self.runner.recorder.log(
            "info" if report.healthy else "warn", "storage",
            "fsck-completed", healthy=report.healthy,
            issues=len(report.issues), repaired=report.repaired_count,
        )
        return report

    # ------------------------------------------------------------------
    # Operations layer. Each method dispatches to the Hadoop variant for
    # heap files and the SpatialHadoop variant for indexed files.
    # ------------------------------------------------------------------
    def _is_indexed(self, name: str) -> bool:
        return "global_index" in self.fs.get(name).metadata

    def range_query(
        self, file_name: str, query: Rectangle, **kwargs: Any
    ) -> OperationResult:
        from repro.operations import range_query_hadoop, range_query_spatial

        if self._is_indexed(file_name):
            return range_query_spatial(self.runner, file_name, query, **kwargs)
        return range_query_hadoop(self.runner, file_name, query)

    def range_count(
        self, file_name: str, query: Rectangle
    ) -> OperationResult:
        from repro.operations import range_count_hadoop, range_count_spatial

        if self._is_indexed(file_name):
            return range_count_spatial(self.runner, file_name, query)
        return range_count_hadoop(self.runner, file_name, query)

    def knn(
        self, file_name: str, query: Point, k: int, **kwargs: Any
    ) -> OperationResult:
        from repro.operations import knn_hadoop, knn_spatial

        if self._is_indexed(file_name):
            return knn_spatial(self.runner, file_name, query, k, **kwargs)
        return knn_hadoop(self.runner, file_name, query, k)

    def spatial_join(
        self, left_file: str, right_file: str, **kwargs: Any
    ) -> OperationResult:
        from repro.operations import (
            spatial_join_distributed,
            spatial_join_sjmr,
        )

        if self._is_indexed(left_file) and self._is_indexed(right_file):
            return spatial_join_distributed(self.runner, left_file, right_file)
        return spatial_join_sjmr(self.runner, left_file, right_file, **kwargs)

    def knn_join(
        self, left_file: str, right_file: str, k: int
    ) -> OperationResult:
        from repro.operations import knn_join_hadoop, knn_join_spatial

        if self._is_indexed(left_file) and self._is_indexed(right_file):
            return knn_join_spatial(self.runner, left_file, right_file, k)
        return knn_join_hadoop(self.runner, left_file, right_file, k)

    def skyline(self, file_name: str, **kwargs: Any) -> OperationResult:
        from repro.operations import skyline_hadoop, skyline_spatial

        if self._is_indexed(file_name):
            return skyline_spatial(self.runner, file_name, **kwargs)
        return skyline_hadoop(self.runner, file_name)

    def convex_hull(self, file_name: str, **kwargs: Any) -> OperationResult:
        from repro.operations import convex_hull_hadoop, convex_hull_spatial

        if self._is_indexed(file_name):
            return convex_hull_spatial(self.runner, file_name, **kwargs)
        return convex_hull_hadoop(self.runner, file_name)

    def closest_pair(self, file_name: str) -> OperationResult:
        from repro.operations import closest_pair_spatial

        return closest_pair_spatial(self.runner, file_name)

    def farthest_pair(self, file_name: str) -> OperationResult:
        from repro.operations import farthest_pair_hadoop, farthest_pair_spatial

        if self._is_indexed(file_name):
            return farthest_pair_spatial(self.runner, file_name)
        return farthest_pair_hadoop(self.runner, file_name)

    def voronoi(self, file_name: str) -> OperationResult:
        from repro.operations import voronoi_spatial

        return voronoi_spatial(self.runner, file_name)

    def union(self, file_name: str, enhanced: bool = False) -> OperationResult:
        from repro.operations import union_enhanced, union_hadoop, union_spatial

        if enhanced:
            return union_enhanced(self.runner, file_name)
        if self._is_indexed(file_name):
            return union_spatial(self.runner, file_name)
        return union_hadoop(self.runner, file_name)
