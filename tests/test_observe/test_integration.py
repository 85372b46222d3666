"""End-to-end observability tests against the real runtime.

The centrepiece is the determinism contract: the *normalized* trace of a
workload — span names, kinds, IDs, parentage, order, attributes — must be
identical whether the waves ran serially in-process or across worker
processes, because the driver creates every span in split/bucket order.
"""

import pickle

import pytest

from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.geometry import Point, Rectangle
from repro.mapreduce import Job
from repro.observe import NullTracer, Tracer, normalize_events

WINDOW = Rectangle(0, 0, 300_000, 300_000)


def run_workload(workers):
    """Index-build + range query + kNN on a fresh traced system."""
    sh = SpatialHadoop(num_nodes=4, job_overhead_s=0.01, workers=workers)
    tracer = sh.enable_tracing()
    sh.load("pts", generate_points(4_000, "uniform", seed=7))
    sh.index("pts", "idx", technique="str")
    sh.range_query("idx", WINDOW)
    sh.knn("idx", Point(500_000, 500_000), 5)
    sh.runner.close()
    return sh, tracer


@pytest.mark.usefixtures("pool_pinned")
class TestSerialParallelEquivalence:
    def test_normalized_traces_identical(self):
        sh_serial, t_serial = run_workload(workers=1)
        sh_parallel, t_parallel = run_workload(workers=4)
        serial = normalize_events(t_serial.records())
        parallel = normalize_events(t_parallel.records())
        assert serial == parallel
        # and the un-normalized trace really is backend-dependent only in
        # its volatile records and timestamps:
        assert len(t_serial.records()) == len(t_parallel.records())

    def test_merged_metrics_identical(self):
        sh_serial, _ = run_workload(workers=1)
        sh_parallel, _ = run_workload(workers=4)
        serial = sh_serial.metrics.snapshot()
        parallel = sh_parallel.metrics.snapshot()
        # Counters and the shuffle histogram are simulated quantities:
        # exactly equal across backends.
        assert serial["counters"] == parallel["counters"]
        assert (
            serial["histograms"]["shuffle_bytes"]
            == parallel["histograms"]["shuffle_bytes"]
        )
        # Gauges and task durations derive from measured CPU time — the
        # values may shift between backends but the population cannot.
        assert list(serial["gauges"]) == list(parallel["gauges"])
        assert (
            serial["histograms"]["task_duration_seconds"]["count"]
            == parallel["histograms"]["task_duration_seconds"]["count"]
        )

    def test_history_structure_identical(self):
        sh_serial, _ = run_workload(workers=1)
        sh_parallel, _ = run_workload(workers=4)
        serial = list(sh_serial.history)
        parallel = list(sh_parallel.history)
        assert [r.name for r in serial] == [r.name for r in parallel]
        assert [r.counters for r in serial] == [r.counters for r in parallel]
        assert [
            [t.task_id for t in r.map_tasks] for r in serial
        ] == [[t.task_id for t in r.map_tasks] for r in parallel]
        assert [
            [t.records_in for t in r.map_tasks] for r in serial
        ] == [[t.records_in for t in r.map_tasks] for r in parallel]


class TestTraceStructure:
    def test_span_tree_covers_all_layers(self):
        _, tracer = run_workload(workers=1)
        kinds = {r["kind"] for r in tracer.records()}
        assert {
            "job", "wave", "task", "phase",
            "index-build", "index-phase", "operation", "round",
        } <= kinds

    def test_task_spans_nest_under_waves_in_split_order(self):
        _, tracer = run_workload(workers=1)
        by_id = {r["id"]: r for r in tracer.records()}
        tasks = tracer.spans("task")
        assert tasks
        for task in tasks:
            assert by_id[task["parent"]]["kind"] == "wave"
        # Within one wave, task spans appear in task-id (split) order.
        first_wave = tasks[0]["parent"]
        names = [t["name"] for t in tasks if t["parent"] == first_wave]
        assert names == sorted(
            names, key=lambda n: int(n.rsplit("-", 1)[1])
        )

    def test_operation_spans_wrap_their_jobs(self):
        _, tracer = run_workload(workers=1)
        by_id = {r["id"]: r for r in tracer.records()}
        rq = next(
            r for r in tracer.spans("job") if r["name"].startswith("job:range")
        )
        assert by_id[rq["parent"]]["kind"] == "operation"
        assert by_id[rq["parent"]]["attrs"]["pruning"] is True

    def test_index_build_phases(self):
        _, tracer = run_workload(workers=1)
        phases = [r["name"] for r in tracer.spans("index-phase")]
        assert phases == ["index:sample", "index:plan", "index:commit"]


class TestWorkerEventShipping:
    def test_ctx_trace_event_lands_under_its_task_span(self):
        sh = SpatialHadoop(num_nodes=2, job_overhead_s=0.01, workers=1)
        tracer = sh.enable_tracing()
        sh.load("pts", generate_points(100, "uniform", seed=1))

        def map_fn(_key, records, ctx):
            ctx.trace_event("inspected", n=len(records))
            for r in records:
                ctx.write_output(r)

        sh.runner.run(Job(input_file="pts", map_fn=map_fn, name="evt"))
        events = [r for r in tracer.records() if r["name"] == "inspected"]
        assert events
        by_id = {r["id"]: r for r in tracer.records()}
        for event in events:
            assert by_id[event["parent"]]["kind"] == "task"
            assert event["attrs"]["n"] > 0


class TestRunnerObservabilityDefaults:
    def test_tracing_disabled_by_default(self):
        sh = SpatialHadoop(num_nodes=2)
        assert isinstance(sh.tracer, NullTracer)
        assert not sh.runner.recorder.tracer.enabled

    def test_enable_disable_round_trip(self):
        sh = SpatialHadoop(num_nodes=2)
        tracer = sh.enable_tracing()
        assert isinstance(tracer, Tracer)
        assert sh.enable_tracing() is tracer  # idempotent
        assert sh.runner.recorder.tracer is tracer
        sh.disable_tracing()
        assert not sh.tracer.enabled
        assert not sh.runner.recorder.tracer.enabled

    def test_history_and_metrics_always_on(self):
        sh = SpatialHadoop(num_nodes=2, job_overhead_s=0.01)
        sh.load("pts", generate_points(500, "uniform", seed=3))
        sh.range_query("pts", WINDOW)
        assert len(sh.history) == 1
        assert sh.metrics.counter("JOBS_TOTAL") == 1
        assert "range-hadoop" in sh.history_report()

    def test_workspace_pickle_keeps_history(self):
        sh = SpatialHadoop(num_nodes=2, job_overhead_s=0.01)
        sh.load("pts", generate_points(500, "uniform", seed=3))
        sh.range_query("pts", WINDOW)
        sh.enable_tracing()
        sh.disable_tracing()
        clone = pickle.loads(pickle.dumps(sh))
        assert len(clone.history) == 1
        assert clone.metrics.counter("JOBS_TOTAL") == 1
        assert isinstance(clone.tracer, NullTracer)
        # and the revived runner still records into the revived stores
        clone.range_query("pts", WINDOW)
        assert len(clone.history) == 2

    def test_history_cost_breakdown_matches_makespan(self):
        sh = SpatialHadoop(num_nodes=2, job_overhead_s=0.01)
        sh.load("pts", generate_points(500, "uniform", seed=3))
        op = sh.range_query("pts", WINDOW)
        (record,) = list(sh.history)
        assert record.cost["total"] == pytest.approx(op.makespan)
        assert record.cost["total"] == pytest.approx(
            record.cost["overhead"]
            + record.cost["map"]
            + record.cost["shuffle"]
            + record.cost["reduce"]
        )
