"""The runtime's one recorder: each driver fact reaches every channel.

A driver fact (checkpoint committed or replayed, round boundary, read
failover, datanode lost, driver fault fired, pool rebuilt) is written to
the metrics registry, the trace and the event log by one call. Armed
with every channel, each fact must therefore show up the same number of
times on each channel that carries it — under a driver crash, on the
resume that replays it, and under storage faults.
"""

import ast
import io
from pathlib import Path

import pytest

import repro.mapreduce.runtime as runtime
from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.geometry import Point, Rectangle
from repro.mapreduce.checkpoint import DriverCrashed

WINDOW = Rectangle(0, 0, 600_000, 600_000)


def build(workers=1):
    sh = SpatialHadoop(num_nodes=4, block_capacity=400, job_overhead_s=0.01,
                       workers=workers)
    sh.load("pts", generate_points(2400, "gaussian", seed=7))
    sh.load("other", generate_points(1200, "uniform", seed=8))
    sh.index("pts", "idx", technique="str")
    sh.index("other", "gidx", technique="grid")
    return sh


def arm(sh):
    sh.enable_tracing()
    sh.eventlog("debug")
    sh.telemetry()
    sh.enable_profiling()
    sh.enable_progress(stream=io.StringIO())


def channels(sh):
    """(metric counters, trace events, log records) of one workspace.

    Read off the runner's recorder, which the facade's own views share.
    """
    recorder = sh.runner.recorder
    assert sh.metrics is recorder.metrics
    assert sh.tracer is recorder.tracer
    assert sh.eventlog() is recorder.eventlog
    counters = recorder.metrics.snapshot()["counters"]
    events = [r for r in recorder.tracer.records() if r["type"] == "event"]
    return counters, events, recorder.eventlog.records()


def checkpoint_facts(sh, action):
    counters, events, records = channels(sh)
    metric = counters.get(
        "CHECKPOINTS_WRITTEN" if action == "committed"
        else "CHECKPOINTS_REPLAYED", 0
    )
    traced = sum(1 for e in events if e["name"] == "checkpoint"
                 and e["attrs"]["action"] == action)
    logged = sum(1 for r in records if r["event"] == f"wave-{action}")
    return metric, traced, logged


def round_facts(sh):
    _, events, records = channels(sh)
    return (sum(1 for e in events if e["name"] == "round-boundary"),
            sum(1 for r in records if r["event"] == "round-boundary"))


def driver_fault_facts(sh):
    counters, _, records = channels(sh)
    logged = sum(1 for r in records if r["event"].startswith("driver-"))
    return counters.get("DRIVER_FAULTS_INJECTED", 0), logged


@pytest.fixture(scope="module")
def crash_and_resume(tmp_path_factory):
    directory = tmp_path_factory.mktemp("ckpt") / "run.ckpt"
    plan = "crashdriver:2,hangdriver:0:0.5"
    crashed = build()
    arm(crashed)
    crashed.runner.set_faults(plan)
    crashed.enable_checkpoints(directory)
    with pytest.raises(DriverCrashed):
        crashed.spatial_join("pts", "other")
    resumed = build()
    arm(resumed)
    resumed.runner.set_faults(plan)
    resumed.resume(directory)
    resumed.spatial_join("pts", "other")
    return crashed, resumed


class TestEveryChannelCountsEachFactOnce:
    def test_crash_commits_and_fires_on_every_channel(self, crash_and_resume):
        crashed, _ = crash_and_resume
        metric, traced, logged = checkpoint_facts(crashed, "committed")
        assert metric == traced == logged == 3
        assert checkpoint_facts(crashed, "replayed") == (0, 0, 0)
        assert driver_fault_facts(crashed) == (2, 2)

    def test_resume_replays_on_every_channel(self, crash_and_resume):
        _, resumed = crash_and_resume
        metric, traced, logged = checkpoint_facts(resumed, "replayed")
        assert metric == traced == logged == 3
        # The crash already fired: the resumed run never re-fires it.
        assert driver_fault_facts(resumed) == (0, 0)

    def test_storage_faults_and_rounds(self):
        sh = build()
        arm(sh)
        sh.runner.set_faults(
            "losenode:1,corruptblock:idx:0:0,corruptblock:gidx:1:0"
        )
        sh.range_query("idx", WINDOW)      # split reads fail over
        sh.spatial_join("idx", "gidx")     # driver reads fail over
        sh.knn("idx", Point(5e5, 5e5), 40)
        sh.closest_pair("gidx")
        counters, events, records = channels(sh)

        lost = [r for r in records if r["event"] == "datanode-lost"]
        assert counters["DATANODES_LOST"] == len(lost) == 1
        assert counters.get("REPLICAS_REPAIRED", 0) == sum(
            r["attrs"]["replicas_repaired"] for r in lost
        )

        failovers = [r for r in records if r["event"] == "read-failover"]
        assert {"job" in r for r in failovers} == {True, False}
        assert counters["READ_FAILOVERS"] == sum(
            r["attrs"]["failovers"] for r in failovers
        )
        assert counters["BLOCKS_CORRUPT_DETECTED"] == sum(
            r["attrs"]["corrupt"] for r in failovers
        ) > 0
        # Split reads annotate their split span; driver reads have none.
        split_spans = [s for s in sh.tracer.spans("phase")
                       if s["name"] == "split"]
        assert sum(s["attrs"].get("read_failovers", 0)
                   for s in split_spans) == sum(
            r["attrs"]["failovers"] for r in failovers if "job" in r
        )

        traced, logged = round_facts(sh)
        assert traced == logged >= 2

    @pytest.mark.usefixtures("pool_pinned")
    def test_pool_rebuilds(self):
        sh = build(workers=2)
        try:
            arm(sh)
            sh.runner.set_faults("kill:map:1")
            result = sh.range_query("pts", WINDOW)
        finally:
            sh.runner.close()
        counters, _, records = channels(sh)
        rebuilt = [r for r in records if r["event"] == "pool-rebuilt"]
        assert rebuilt
        assert counters["POOL_REBUILDS"] == sum(
            r["attrs"]["rebuilds"] for r in rebuilt
        ) == result.jobs[0].fault_summary["pool_rebuilds"]


def test_runtime_reaches_observe_only_through_recorder_and_profile():
    """The MapReduce loop writes no channel itself: it imports nothing
    from ``repro.observe`` but the recorder and the task-side profiler."""
    tree = ast.parse(Path(runtime.__file__).read_text())
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.observe":
            modules.update(f"repro.observe.{a.name}" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            modules.add(node.module)
    observe = {m for m in modules if m.split(".")[:2] == ["repro", "observe"]}
    assert observe <= {"repro.observe.recorder", "repro.observe.profile"}, (
        sorted(observe)
    )
