"""The flight recorder: unit contract plus the determinism property.

The centrepiece mirrors the tracer's: the *normalized* event log of a
workload (volatile records dropped, timestamps replaced by ordinals)
must be bit-identical whether the waves ran serially or across worker
processes — because the driver emits every record in split/bucket order.
"""

import json
import pickle

import pytest

from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.geometry import Point, Rectangle
from repro.observe.log import (
    DEFAULT_CAPACITY,
    LEVELS,
    EventLog,
    level_value,
    read_jsonl,
    render_line,
    render_report,
)

WINDOW = Rectangle(0, 0, 300_000, 300_000)


class TestLevels:
    def test_severity_order(self):
        assert (
            LEVELS["debug"] < LEVELS["info"] < LEVELS["warn"] < LEVELS["error"]
        )

    def test_level_value_rejects_junk(self):
        with pytest.raises(ValueError, match="unknown log level"):
            level_value("chatty")

    def test_emit_rejects_junk_level(self):
        with pytest.raises(ValueError, match="unknown log level"):
            EventLog().emit("loud", "x", "y")

    def test_job_side_severity_table_matches(self):
        # job.py keeps a local copy so task bodies never import the
        # observability package; the two tables must never drift.
        from repro.mapreduce.job import _LOG_SEVERITY

        assert _LOG_SEVERITY == LEVELS


class TestEmit:
    def test_threshold_filters(self):
        log = EventLog(level="warn")
        log.emit("info", "runtime", "ignored")
        log.emit("warn", "runtime", "kept")
        assert [r["event"] for r in log.records()] == ["kept"]

    def test_filtered_emission_consumes_no_sequence_number(self):
        # The zero-cost contract: a below-threshold emit must not touch
        # any log state (no clock read, no record build, no seq bump).
        log = EventLog(level="error")
        for _ in range(100):
            log.emit("debug", "runtime", "noise")
        assert log._seq == 0 and log.dropped == 0

    def test_record_shape_and_order(self):
        log = EventLog(level="debug")
        log.emit("info", "runtime", "one", job="j", wave="map", task="map-0",
                 span=3, records=7)
        log.emit("warn", "storage", "two", volatile=True)
        first, second = log.records()
        assert first["seq"] == 0 and second["seq"] == 1
        assert first["component"] == "runtime" and first["event"] == "one"
        assert first["job"] == "j" and first["task"] == "map-0"
        assert first["span"] == 3 and first["attrs"] == {"records": 7}
        assert "volatile" not in first and second["volatile"] is True

    def test_level_setter_and_enabled_for(self):
        log = EventLog(level="info")
        assert log.enabled_for("warn") and not log.enabled_for("debug")
        log.level = "debug"
        assert log.level == "debug" and log.enabled_for("debug")


class TestRingBuffer:
    def test_capacity_bounds_retention(self):
        log = EventLog(level="debug", capacity=5)
        for i in range(12):
            log.emit("info", "c", f"e{i}")
        assert len(log) == 5
        assert log.dropped == 7
        assert [r["event"] for r in log.records()] == [
            f"e{i}" for i in range(7, 12)
        ]

    def test_default_capacity(self):
        assert EventLog().capacity == DEFAULT_CAPACITY

    def test_dropped_events_reported_by_render(self):
        log = EventLog(capacity=2)
        for i in range(4):
            log.emit("info", "c", f"e{i}")
        text = render_report(log.records(), dropped=log.dropped)
        assert "2 older dropped" in text


class TestNormalization:
    def test_volatile_dropped_and_ordinals_assigned(self):
        log = EventLog(level="debug")
        log.emit("info", "c", "keep-0")
        log.emit("warn", "c", "drop", volatile=True, rebuilds=2)
        log.emit("info", "c", "keep-1")
        normalized = log.normalized_records()
        assert [r["event"] for r in normalized] == ["keep-0", "keep-1"]
        assert [(r["seq"], r["ts"]) for r in normalized] == [(0, 0), (1, 1)]

    def test_absorb_only_takes_log_marked_dicts(self):
        log = EventLog(level="debug")
        shipped = [
            {"name": "trace-event", "attrs": {}},  # a plain trace event
            {"name": "scanned", "attrs": {"n": 3}, "log": "debug"},
        ]
        log.absorb(shipped, job="j", wave="map", task="map-1", span=9)
        assert len(log) == 1
        rec = log.records()[0]
        assert rec["event"] == "scanned"
        assert rec["component"] == "task"
        assert rec["task"] == "map-1" and rec["span"] == 9


class TestQuery:
    @pytest.fixture
    def log(self):
        log = EventLog(level="debug")
        log.emit("debug", "task", "scanned", task="map-0", job="a")
        log.emit("info", "runtime", "wave-finished", job="a")
        log.emit("warn", "storage", "read-failover", job="b")
        return log

    def test_level_is_minimum_severity(self, log):
        assert len(log.query(level="info")) == 2
        assert len(log.query(level="warn")) == 1

    def test_component_task_job_filters(self, log):
        assert [r["event"] for r in log.query(component="storage")] == [
            "read-failover"
        ]
        assert len(log.query(task="map-0")) == 1
        assert len(log.query(job="a")) == 2

    def test_grep_matches_rendered_line(self, log):
        assert len(log.query(grep="FAILOVER")) == 1  # case-insensitive
        assert len(log.query(grep="job=a")) == 2

    def test_last_limits_tail(self, log):
        assert [r["event"] for r in log.query(last=1)] == ["read-failover"]


class TestPersistence:
    def test_pickle_round_trip_preserves_records_and_cap(self):
        log = EventLog(level="warn", capacity=7)
        log.emit("error", "c", "boom", code=3)
        clone = pickle.loads(pickle.dumps(log))
        assert clone.records() == log.records()
        assert clone.capacity == 7 and clone.level == "warn"
        clone.emit("warn", "c", "later")
        assert len(clone) == 2

    def test_export_and_read_jsonl(self, tmp_path):
        log = EventLog(level="debug")
        log.emit("info", "c", "keep")
        log.emit("info", "c", "gone", volatile=True)
        path = tmp_path / "events.jsonl"
        log.export_jsonl(path)
        header = json.loads(path.read_text().splitlines()[0])
        assert header["type"] == "eventlog" and header["normalized"] is True
        records = read_jsonl(path)
        assert [r["event"] for r in records] == ["keep"]

    def test_from_records_restores_emitted_count(self):
        log = EventLog.from_records(
            [{"seq": 5, "level": "info", "component": "c", "event": "x"}],
            level="debug",
            emitted=9,
        )
        assert len(log) == 1 and log.dropped == 8


class TestRenderLine:
    def test_line_carries_scope_and_attrs(self):
        line = render_line(
            {
                "seq": 3,
                "level": "warn",
                "component": "runtime",
                "event": "wave-faults",
                "job": "q",
                "wave": "map",
                "attrs": {"retries": 2},
                "volatile": True,
            }
        )
        assert "#3" in line and "warn" in line and "wave-faults" in line
        assert "job=q" in line and "retries=2" in line
        assert "(volatile)" in line


def run_workload(workers, level="debug"):
    """Load + index + two queries with the flight recorder armed."""
    sh = SpatialHadoop(num_nodes=4, job_overhead_s=0.01, workers=workers)
    log = sh.eventlog(level=level)
    sh.load("pts", generate_points(4_000, "uniform", seed=7))
    sh.index("pts", "idx", technique="str")
    sh.range_query("idx", WINDOW)
    sh.knn("idx", Point(500_000, 500_000), 5)
    sh.runner.close()
    return sh, log


def normalized_bytes(log):
    return json.dumps(log.normalized_records(), sort_keys=True).encode()


@pytest.mark.usefixtures("pool_pinned")
class TestSerialParallelEquivalence:
    def test_normalized_logs_bit_identical(self):
        _, serial = run_workload(workers=1)
        _, parallel = run_workload(workers=2)
        assert normalized_bytes(serial) == normalized_bytes(parallel)
        # ... and the raw logs differ only in volatile records/timing.
        assert len(serial.records()) >= len(serial.normalized_records())


class TestRuntimeEmissions:
    def test_workload_emits_expected_structure(self):
        _, log = run_workload(workers=1)
        events = [r["event"] for r in log.normalized_records()]
        assert "file-loaded" in events
        assert "index-built" in events
        assert events.count("job-started") == events.count("job-finished")
        # worker-side ctx.log records shipped back from map tasks:
        assert any(
            r["event"] == "partition-scanned" and r.get("task")
            for r in log.normalized_records()
        )

    def test_wave_events_carry_span_correlation_when_traced(self):
        sh = SpatialHadoop(num_nodes=4, job_overhead_s=0.01, workers=1)
        log = sh.eventlog(level="debug")
        sh.enable_tracing()
        sh.load("pts", generate_points(1_000, "uniform", seed=3))
        sh.index("pts", "idx", technique="grid")
        sh.runner.close()
        spans = [
            r["span"]
            for r in log.records()
            if r["event"] in ("wave-finished", "partition-scanned")
            and r.get("span") is not None
        ]
        assert spans, "traced runs must stamp correlation ids"

    def test_disarmed_runner_records_nothing(self):
        sh = SpatialHadoop(num_nodes=4, job_overhead_s=0.01, workers=1)
        assert sh.runner.recorder.eventlog is None
        sh.load("pts", generate_points(500, "uniform", seed=1))
        sh.index("pts", "idx", technique="grid")
        sh.runner.close()
        assert sh.runner.recorder.eventlog is None

    def test_task_log_gated_by_shipped_threshold(self):
        # debug-level worker events are filtered inside the task when
        # the driver threshold is info — not shipped and dropped later.
        sh = SpatialHadoop(num_nodes=4, job_overhead_s=0.01, workers=1)
        log = sh.eventlog(level="info")
        sh.load("pts", generate_points(1_000, "uniform", seed=3))
        sh.index("pts", "idx", technique="grid")
        sh.range_query("idx", WINDOW)
        sh.runner.close()
        events = [r["event"] for r in log.records()]
        assert "partition-scanned" not in events  # debug-level ctx.log
        assert "job-finished" in events
