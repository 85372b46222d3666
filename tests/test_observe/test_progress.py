"""Live progress reporter tests (repro.observe.progress)."""

import io
import pickle

import pytest

from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.geometry import Rectangle
from repro.observe import ProgressReporter


def make_system(workers=1, capacity=50):
    sh = SpatialHadoop(num_nodes=4, block_capacity=capacity, workers=workers)
    sh.load("pts", generate_points(1000, "uniform", seed=9))
    return sh


class TestReporterUnit:
    def test_lines_are_prefixed(self):
        buf = io.StringIO()
        r = ProgressReporter(stream=buf)
        r.job_started("j", ["f"])
        assert buf.getvalue().startswith("[progress] ")

    def test_throttles_to_updates_per_wave(self):
        buf = io.StringIO()
        r = ProgressReporter(stream=buf, updates_per_wave=10)
        r.wave_started("j", "map", 100)
        for done in range(1, 101):
            r.task_finished("map", done, 100, 1, 1)
        task_lines = [
            line for line in buf.getvalue().splitlines() if "map " in line
        ]
        assert len(task_lines) <= 11  # 10 steps + the final task

    def test_small_waves_report_every_task(self):
        buf = io.StringIO()
        r = ProgressReporter(stream=buf, updates_per_wave=10)
        r.wave_started("j", "map", 3)
        for done in range(1, 4):
            r.task_finished("map", done, 3, 5, 5)
        assert buf.getvalue().count("map ") >= 3

    def test_survives_closed_stream(self):
        buf = io.StringIO()
        r = ProgressReporter(stream=buf)
        buf.close()
        r.job_started("j", ["f"])  # must not raise


class TestRunnerIntegration:
    def test_streams_wave_and_counters(self):
        sh = make_system()
        buf = io.StringIO()
        sh.enable_progress(stream=buf)
        sh.range_query("pts", Rectangle(0, 0, 5e4, 5e4))
        out = buf.getvalue()
        assert "started" in out
        assert "map wave" in out
        assert "finished: makespan" in out
        assert "MAP_INPUT_RECORDS" in out

    def test_disable_detaches(self):
        sh = make_system()
        buf = io.StringIO()
        sh.enable_progress(stream=buf)
        sh.disable_progress()
        sh.range_query("pts", Rectangle(0, 0, 5e4, 5e4))
        assert buf.getvalue() == ""

    @pytest.mark.usefixtures("pool_pinned")
    def test_parallel_backend_results_unchanged(self):
        serial = make_system(workers=1)
        parallel = make_system(workers=2)
        buf = io.StringIO()
        parallel.enable_progress(stream=buf)
        try:
            a = serial.range_query("pts", Rectangle(0, 0, 5e4, 5e4))
            b = parallel.range_query("pts", Rectangle(0, 0, 5e4, 5e4))
        finally:
            parallel.runner.close()
        assert sorted(map(repr, a.answer)) == sorted(map(repr, b.answer))
        assert "finished" in buf.getvalue()

    def test_workspace_pickles_after_detach(self):
        sh = make_system()
        sh.enable_progress(stream=io.StringIO())
        sh.disable_progress()
        clone = pickle.loads(pickle.dumps(sh))
        assert clone.runner.recorder.progress is None

    def test_old_workspace_unpickles_without_progress_attr(self):
        sh = make_system()
        state = pickle.dumps(sh)
        clone = pickle.loads(state)
        del clone.runner.recorder.__dict__["progress"]
        again = pickle.loads(pickle.dumps(clone))
        assert again.runner.recorder.progress is None
