"""Fault injection and fault tolerance: the chaos machinery itself.

The contract under test: a seeded :class:`FaultPlan` may crash, hang,
corrupt or kill task attempts, and the job must still produce output and
counters *bit-identical* to a fault-free run — the only visible
differences are the attempt history, the fault summary, and a larger
simulated makespan (retries and backoff are charged to the cluster
model, never slept).
"""

import pickle

import pytest

from repro.mapreduce import (
    ClusterModel,
    FaultPlan,
    FaultSpec,
    FileSystem,
    InjectedFault,
    Job,
    JobRunner,
    RandomFaults,
    TaskAttempt,
    TaskStats,
    TaskTimeoutError,
    retry_backoff,
)
from repro.mapreduce.faults import (
    BACKOFF_CAP_S,
    FAULTS_ENV_VAR,
    resolve_faults,
)
from repro.observe import JobHistory, MetricsRegistry, Tracer
from repro.observe.recorder import Recorder


# ----------------------------------------------------------------------
# Module-level task functions (picklable, so they ship to workers).
# ----------------------------------------------------------------------
def mod_map(_key, records, ctx):
    for value in records:
        ctx.emit(value % 5, value)


def sum_reduce(key, values, ctx):
    ctx.write_output((key, sum(values), len(values)))


def failing_map(_key, records, ctx):
    raise ValueError("mapper is broken for real")


def make_runner(workers=1, **kwargs):
    fs = FileSystem(default_block_capacity=25)
    fs.create_file("nums", list(range(100)))  # 4 blocks -> 4 map tasks
    cluster = ClusterModel(num_nodes=4, job_overhead_s=0.01)
    return JobRunner(fs, cluster, workers=workers, **kwargs)


def make_job():
    return Job(
        "nums",
        mod_map,
        reduce_fn=sum_reduce,
        num_reducers=3,
        name="modsum",
    )


def attempt_histories(result):
    """``[(task_id, [(attempt, outcome), ...]), ...]`` for retried tasks."""
    out = []
    for task in list(result.map_tasks) + list(result.reduce_tasks):
        if task.attempts:
            out.append(
                (task.task_id, [(a.attempt, a.outcome) for a in task.attempts])
            )
    return out


# ----------------------------------------------------------------------
# Fault-plan parsing and lookup
# ----------------------------------------------------------------------
class TestFaultPlanParsing:
    def test_basic_entry(self):
        plan = FaultPlan.parse("crash:map:1")
        assert plan.specs == (FaultSpec(kind="crash", wave="map", task=1),)
        assert plan.lookup("map", 1, 0).kind == "crash"
        assert plan.lookup("map", 1, 1) is None  # attempt defaults to 0
        assert plan.lookup("map", 2, 0) is None
        assert plan.lookup("reduce", 1, 0) is None

    def test_empty_spec_is_none(self):
        assert FaultPlan.parse("") is None
        assert FaultPlan.parse(" , ,") is None

    def test_wildcards(self):
        plan = FaultPlan.parse("corrupt:*:*:*")
        for wave in ("map", "reduce"):
            for task in (0, 7):
                for attempt in (0, 3):
                    assert plan.lookup(wave, task, attempt).kind == "corrupt"
        # -1 is the numeric spelling of the same wildcard.
        assert FaultPlan.parse("corrupt:map:-1").lookup("map", 9, 0)

    def test_hang_seconds_and_attempt(self):
        plan = FaultPlan.parse("hang:reduce:0:2:12.5")
        spec = plan.lookup("reduce", 0, 2)
        assert spec.seconds == 12.5
        assert plan.lookup("reduce", 0, 0) is None

    def test_seed_entry(self):
        assert FaultPlan.parse("seed:9,crash:map:0").seed == 9

    def test_random_entry(self):
        plan = FaultPlan.parse("random:crash:0.25:42")
        assert plan.random == (RandomFaults(kind="crash", rate=0.25, seed=42),)
        # Seeded and stateless: the same attempt always decides the same way.
        first = [plan.lookup("map", t, 0) is not None for t in range(40)]
        again = [plan.lookup("map", t, 0) is not None for t in range(40)]
        assert first == again
        assert any(first) and not all(first)

    def test_random_rate_extremes(self):
        never = RandomFaults(kind="crash", rate=0.0)
        always = RandomFaults(kind="crash", rate=1.0)
        assert not any(never.hits("map", t, 0) for t in range(50))
        assert all(always.hits("map", t, 0) for t in range(50))

    def test_explicit_beats_random(self):
        plan = FaultPlan.parse("hang:map:3,random:crash:1.0")
        assert plan.lookup("map", 3, 0).kind == "hang"
        assert plan.lookup("map", 0, 0).kind == "crash"

    def test_first_match_wins(self):
        plan = FaultPlan.parse("crash:map:1,hang:map:*")
        assert plan.lookup("map", 1, 0).kind == "crash"
        assert plan.lookup("map", 2, 0).kind == "hang"

    @pytest.mark.parametrize(
        "spec",
        [
            "bogus",
            "explode:map:1",
            "crash:shuffle:1",
            "crash:map:notanint",
            "random:crash:1.5",
            "random:crash",
            "seed:xyz",
        ],
    )
    def test_bad_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_describe_mentions_every_entry(self):
        plan = FaultPlan.parse("crash:map:1,random:kill:0.1:7")
        text = plan.describe()
        assert "crash:map:1" in text
        assert "random:kill:0.1:7" in text

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV_VAR, "crash:map:0")
        assert FaultPlan.from_env().specs[0].kind == "crash"
        monkeypatch.setenv(FAULTS_ENV_VAR, "")
        assert FaultPlan.from_env() is None

    def test_resolve_faults(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV_VAR, raising=False)
        assert resolve_faults(None) is None
        plan = FaultPlan.parse("crash:map:0")
        assert resolve_faults(plan) is plan
        assert resolve_faults("crash:map:0") == plan
        with pytest.raises(TypeError):
            resolve_faults(42)


class TestServiceFaultParsing:
    """The PR 10 service-level fault kinds: burst and slowtenant."""

    def test_burst_entry(self):
        plan = FaultPlan.parse("burst:alice:5")
        fault = plan.service[0]
        assert fault.kind == "burst"
        assert fault.tenant == "alice"
        assert fault.amount == 5
        assert plan.burst_for("alice") == 5
        assert plan.burst_for("bob") == 0

    def test_slowtenant_entry(self):
        plan = FaultPlan.parse("slowtenant:bob:2.5")
        assert plan.slowdown_for("bob") == 2.5
        assert plan.slowdown_for("alice") == 0.0
        assert plan.burst_for("bob") == 0  # kinds don't cross-talk

    def test_multiple_entries_accumulate(self):
        plan = FaultPlan.parse("slowtenant:bob:2,slowtenant:bob:3")
        assert plan.slowdown_for("bob") == 5.0

    def test_mixes_with_task_and_storage_faults(self):
        plan = FaultPlan.parse(
            "crash:map:0,losenode:2,burst:alice:3,slowtenant:bob:1"
        )
        assert plan.lookup("map", 0, 0).kind == "crash"
        assert plan.storage[0].kind == "losenode"
        assert plan.burst_for("alice") == 3
        assert plan.slowdown_for("bob") == 1.0

    def test_describe_mentions_service_entries(self):
        plan = FaultPlan.parse("burst:alice:3,slowtenant:bob:1.5")
        text = plan.describe()
        assert "burst:alice:3" in text
        assert "slowtenant:bob:1.5" in text

    @pytest.mark.parametrize(
        "spec",
        [
            "burst:alice",  # missing count
            "burst:alice:3:9",  # too many fields
            "burst::3",  # empty tenant
            "burst:alice:-1",  # negative
            "burst:alice:1.5",  # non-integer count
            "burst:alice:nan5",  # uncastable
            "slowtenant:bob",  # missing seconds
            "slowtenant:bob:-2",  # negative
        ],
    )
    def test_bad_service_specs_raise(self, spec):
        with pytest.raises(ValueError):
            FaultPlan.parse(spec)

    def test_service_only_plan_is_not_empty(self):
        assert FaultPlan.parse("burst:alice:1") is not None

    def test_plan_with_service_faults_pickles(self):
        plan = FaultPlan.parse("burst:alice:3,slowtenant:bob:1")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan


# ----------------------------------------------------------------------
# Backoff schedule
# ----------------------------------------------------------------------
class TestRetryBackoff:
    def test_first_attempt_has_no_backoff(self):
        assert retry_backoff("map-0", 0) == 0.0

    def test_capped_exponential_with_jitter(self):
        for attempt, base in ((1, 1.0), (2, 2.0), (3, 4.0), (8, BACKOFF_CAP_S)):
            value = retry_backoff("map-0", attempt)
            assert 0.5 * base <= value < 1.5 * base

    def test_deterministic_but_decorrelated(self):
        assert retry_backoff("map-0", 1) == retry_backoff("map-0", 1)
        spread = {retry_backoff(f"map-{i}", 1) for i in range(10)}
        assert len(spread) > 1
        assert retry_backoff("map-0", 1, seed=1) != retry_backoff("map-0", 1)


# ----------------------------------------------------------------------
# End-to-end: faults may not change results
# ----------------------------------------------------------------------
class TestFaultyRunsMatchCleanRuns:
    PLAN = "crash:map:1,crash:map:3,corrupt:reduce:0,kill:map:2"

    def test_output_and_counters_identical(self):
        clean = make_runner().run(make_job())
        runner = make_runner(faults=self.PLAN)
        faulted = runner.run(make_job())

        assert faulted.output == clean.output
        assert faulted.counters.as_dict() == clean.counters.as_dict()
        assert clean.fault_summary == {}
        assert faulted.fault_summary["retries"] == 4
        assert faulted.fault_summary["crashes"] == 2
        assert faulted.fault_summary["corrupt"] == 1
        assert faulted.fault_summary["worker_lost"] == 1
        assert faulted.fault_summary["backoff_s"] > 0
        # Retries and backoff are charged to the simulated makespan.
        assert faulted.makespan > clean.makespan

    def test_attempt_history(self):
        result = make_runner(faults=self.PLAN).run(make_job())
        assert attempt_histories(result) == [
            ("map-1", [(0, "crash"), (1, "success")]),
            ("map-2", [(0, "worker-lost"), (1, "success")]),
            ("map-3", [(0, "crash"), (1, "success")]),
            ("reduce-0", [(0, "corrupt"), (1, "success")]),
        ]
        retried = [t for t in result.map_tasks if t.was_retried]
        assert len(retried) == 3
        assert all(t.num_attempts == 2 for t in retried)

    def test_clean_tasks_have_empty_history(self):
        result = make_runner().run(make_job())
        assert attempt_histories(result) == []

    def test_timeout_then_retry(self):
        runner = make_runner(faults="hang:map:1:0:30", task_timeout=10.0)
        clean = make_runner().run(make_job())
        result = runner.run(make_job())
        assert result.output == clean.output
        assert attempt_histories(result) == [
            ("map-1", [(0, "timeout"), (1, "success")])
        ]
        assert result.tasks_timed_out == 1
        assert result.tasks_retried == 1

    def test_exhaustion_raises_injected_fault(self):
        runner = make_runner(faults="crash:map:1:*", max_attempts=3)
        with pytest.raises(InjectedFault):
            runner.run(make_job())

    def test_exhaustion_raises_timeout(self):
        runner = make_runner(
            faults="hang:map:1:*:30", task_timeout=10.0, max_attempts=2
        )
        with pytest.raises(TaskTimeoutError):
            runner.run(make_job())

    def test_user_exception_type_survives_retries(self):
        """After max_attempts the *original* error surfaces, not a wrapper."""
        runner = make_runner(max_attempts=2)
        with pytest.raises(ValueError, match="broken for real"):
            runner.run(Job("nums", failing_map, name="broken"))

    def test_pickled_runner_drops_fault_plan(self):
        runner = make_runner(faults="crash:map:0", max_attempts=7)
        clone = pickle.loads(pickle.dumps(runner))
        assert clone.faults is None
        assert clone.max_attempts == 7


# ----------------------------------------------------------------------
# Speculative execution
# ----------------------------------------------------------------------
class TestSpeculation:
    def test_backup_wins_and_output_is_unchanged(self):
        clean = make_runner().run(make_job())
        runner = make_runner(faults="hang:map:2:0:30", speculative=True)
        result = runner.run(make_job())
        assert result.output == clean.output
        assert result.counters.as_dict() == clean.counters.as_dict()
        assert result.tasks_speculative >= 1
        (task,) = [t for t in result.map_tasks if t.task_id == "map-2"]
        outcomes = [(a.outcome, a.speculative) for a in task.attempts]
        assert ("speculative-lost", False) in outcomes
        assert ("success", True) in outcomes
        assert not task.was_retried  # speculation is not a failure

    def test_speculation_off_by_default(self):
        result = make_runner(faults="hang:map:2:0:30").run(make_job())
        assert result.tasks_speculative == 0
        assert all(
            not a.speculative
            for t in result.map_tasks
            for a in t.attempts
        )


# ----------------------------------------------------------------------
# Parallel backend: same chaos, same answers, plus pool recovery
# ----------------------------------------------------------------------
@pytest.mark.usefixtures("pool_pinned")
class TestParallelFaultEquivalence:
    def run_both(self, plan, **kwargs):
        serial = make_runner(faults=plan, **kwargs)
        parallel = make_runner(workers=2, faults=plan, **kwargs)
        try:
            return serial.run(make_job()), parallel.run(make_job()), parallel
        finally:
            parallel.close()
            serial.close()

    def test_crashes_are_backend_invariant(self):
        s, p, _ = self.run_both("crash:map:1,crash:reduce:2")
        assert s.output == p.output
        assert s.counters.as_dict() == p.counters.as_dict()
        assert attempt_histories(s) == attempt_histories(p)

    def test_worker_kill_rebuilds_pool(self):
        clean = make_runner().run(make_job())
        s, p, runner = self.run_both("kill:map:2")
        assert p.output == clean.output
        assert p.counters.as_dict() == clean.counters.as_dict()
        # Both backends record the same worker-lost attempt history even
        # though only the parallel one really loses a process.
        assert attempt_histories(s) == attempt_histories(p)
        assert runner.executor.pool_rebuilds >= 1
        assert p.fault_summary["pool_rebuilds"] >= 1


# ----------------------------------------------------------------------
# Cluster model: attempts and heterogeneity
# ----------------------------------------------------------------------
class TestClusterModelFaults:
    def mk(self, seconds, attempts=()):
        return TaskStats(task_id="t", seconds=seconds, attempts=list(attempts))

    def test_wave_span_equals_lpt_when_clean(self):
        cm = ClusterModel(num_nodes=4, per_record_io_s=0.0)
        secs = [3.0, 1.0, 4.0, 1.0, 5.0]
        tasks = [self.mk(s) for s in secs]
        assert cm.wave_span(tasks) == cm.schedule(secs)

    def test_retries_lengthen_the_span(self):
        cm = ClusterModel(num_nodes=4, per_record_io_s=0.0)
        clean = [self.mk(1.0) for _ in range(4)]
        retried = [self.mk(1.0) for _ in range(3)] + [
            self.mk(
                1.0,
                [
                    TaskAttempt(0, "crash", seconds=0.0),
                    TaskAttempt(1, "success", seconds=1.0, backoff_s=1.2),
                ],
            )
        ]
        assert cm.wave_span(retried) == pytest.approx(
            cm.wave_span(clean) + 1.2
        )

    def test_effective_and_backup_seconds(self):
        task = self.mk(
            2.0,
            [
                TaskAttempt(0, "crash", seconds=0.5),
                TaskAttempt(1, "speculative-lost", seconds=2.0, backoff_s=1.0),
                TaskAttempt(2, "success", seconds=1.5, speculative=True),
            ],
        )
        assert task.effective_seconds() == pytest.approx(0.5 + 1.0 + 2.0)
        assert task.backup_seconds() == [1.5]
        assert task.effective_seconds(0.1) == pytest.approx(3.5 + 0.2)

    def test_homogeneous_backups_only_add_load(self):
        cm = ClusterModel(num_nodes=2, per_record_io_s=0.0)
        tasks = [self.mk(1.0) for _ in range(4)]
        spec = [
            self.mk(
                1.0,
                [
                    TaskAttempt(0, "speculative-lost", seconds=1.0),
                    TaskAttempt(1, "success", seconds=1.0, speculative=True),
                ],
            )
        ] + [self.mk(1.0) for _ in range(3)]
        assert cm.wave_span(spec) >= cm.wave_span(tasks)

    def test_heterogeneous_speculation_reduces_makespan(self):
        cm = ClusterModel(
            num_nodes=4,
            slow_nodes=1,
            slow_node_factor=8.0,
            per_record_io_s=0.0,
        )
        plain = [self.mk(1.0) for _ in range(8)]
        backup = [
            TaskAttempt(0, "speculative-lost", seconds=1.0),
            TaskAttempt(1, "success", seconds=1.0, speculative=True),
        ]
        rescued = [self.mk(1.0, backup)] + [self.mk(1.0) for _ in range(7)]
        assert cm.wave_span(rescued) < cm.wave_span(plain)

    def test_slow_node_factor_validation(self):
        with pytest.raises(ValueError):
            ClusterModel(num_nodes=2, slow_nodes=1, slow_node_factor=0.5)

    def test_slow_nodes_clamped(self):
        cm = ClusterModel(num_nodes=2, slow_nodes=10, slow_node_factor=2.0)
        assert cm.slow_nodes == 1


# ----------------------------------------------------------------------
# Observability: metrics, history, traces
# ----------------------------------------------------------------------
class TestFaultObservability:
    def test_metrics_counters(self):
        metrics = MetricsRegistry()
        runner = make_runner(
            faults="crash:map:1,hang:map:2:0:30",
            task_timeout=10.0,
            recorder=Recorder(metrics=metrics),
        )
        runner.run(make_job())
        snap = metrics.snapshot()
        assert snap["counters"]["TASKS_RETRIED"] == 2
        assert snap["counters"]["TASKS_TIMED_OUT"] == 1
        assert snap["counters"]["TASK_CRASHES"] == 1
        assert snap["counters"]["FAULTS_INJECTED"] == 2
        assert "retry_backoff_seconds" in snap["histograms"]

    def test_history_renders_attempts_table(self):
        history = JobHistory()
        runner = make_runner(faults="crash:map:1",
                             recorder=Recorder(history=history))
        runner.run(make_job())
        report = history.report()
        assert "attempts (1 task(s) with history):" in report
        assert "map-1" in report
        assert "crash" in report
        assert "fault summary:" in report

    def test_trace_attempt_spans(self):
        tracer = Tracer()
        runner = make_runner(faults="crash:map:1",
                             recorder=Recorder(tracer=tracer))
        runner.run(make_job())
        spans = [r for r in tracer.records() if r.get("type") == "span"]
        attempts = [s for s in spans if s.get("kind") == "attempt"]
        assert len(attempts) == 2  # the crash and the success
        task_span = next(
            s for s in spans if s["name"] == "task:map-1"
        )
        assert all(a["parent"] == task_span["id"] for a in attempts)
        wave = next(s for s in spans if s["name"] == "wave:map")
        assert wave["attrs"]["tasks_retries"] == 1
