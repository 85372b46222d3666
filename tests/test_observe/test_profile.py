"""Tests for the per-phase task profiler and its aggregation helpers."""

import time

import pytest

from repro.observe import profile


@pytest.fixture(autouse=True)
def no_env_profiling(monkeypatch):
    monkeypatch.delenv(profile.PROFILE_ENV_VAR, raising=False)


class TestResolve:
    def test_explicit_flag_wins(self, monkeypatch):
        monkeypatch.setenv(profile.PROFILE_ENV_VAR, "1")
        assert profile.resolve(False) is False
        assert profile.resolve(True) is True

    def test_env_fallback(self, monkeypatch):
        assert profile.resolve(None) is False
        monkeypatch.setenv(profile.PROFILE_ENV_VAR, "on")
        assert profile.resolve(None) is True


class TestTaskScope:
    def test_disabled_scope_collects_nothing(self):
        with profile.task_scope(False) as phases:
            with profile.phase("kernel"):
                pass
        assert phases == {}
        assert not profile.is_active()

    def test_enabled_scope_collects_phases_and_self(self):
        with profile.task_scope(True) as phases:
            with profile.phase("kernel"):
                time.sleep(0.001)
            with profile.phase("kernel"):
                pass
        assert not profile.is_active()
        assert phases["kernel"][1] == 2
        assert phases["kernel"][0] > 0.0
        assert phases["self"][1] == 1
        assert phases["self"][0] >= 0.0

    def test_nested_scope_keeps_outermost(self):
        with profile.task_scope(True) as outer:
            with profile.task_scope(True) as inner:
                with profile.phase("kernel"):
                    pass
        assert "kernel" in outer
        assert inner == {}

    def test_phase_outside_scope_is_noop(self):
        with profile.phase("kernel"):
            pass
        assert not profile.is_active()

    def test_add_outside_scope_is_noop(self):
        profile.add("kernel", 1.0)
        assert not profile.is_active()


class TestAggregation:
    def test_merge_into_prefixes_and_sums(self):
        prof = {}
        profile.merge_into(prof, {"kernel": [0.5, 2]}, "map")
        profile.merge_into(prof, {"kernel": [0.25, 1]}, "map")
        assert prof == {"map/kernel": {"s": 0.75, "n": 3}}

    def test_merge_profiles_sums_phasewise(self):
        a = {"map/kernel": {"s": 1.0, "n": 1}}
        b = {"map/kernel": {"s": 2.0, "n": 3}, "driver/commit": {"s": 0.5, "n": 1}}
        profile.merge_profiles(a, b)
        assert a["map/kernel"] == {"s": 3.0, "n": 4}
        assert a["driver/commit"] == {"s": 0.5, "n": 1}

    def test_collapse_integer_microseconds_sorted(self):
        prof = {
            "map/kernel": {"s": 0.001, "n": 1},
            "driver/split-fetch": {"s": 0.002, "n": 1},
            "map/zero": {"s": 0.0, "n": 5},
        }
        lines = profile.collapse(prof)
        assert lines == [
            "job;driver;split-fetch 2000",
            "job;map;kernel 1000",
        ]

    def test_render_report_empty_and_sorted(self):
        assert "--profile" in profile.render_report({})
        text = profile.render_report({
            "map/kernel": {"s": 3.0, "n": 2},
            "map/self": {"s": 1.0, "n": 1},
        })
        # Sorted by descending seconds; shares sum to 100%.
        assert text.index("map/kernel") < text.index("map/self")
        assert "75.0%" in text and "25.0%" in text


class TestJobIntegration:
    def test_profiled_job_populates_phase_profile(self):
        from repro.core.system import SpatialHadoop
        from repro.datagen import generate_points
        from repro.geometry import Rectangle

        sh = SpatialHadoop(num_nodes=4)
        sh.load("pts", generate_points(800, "uniform", seed=3))
        sh.index("pts", "idx", technique="str")
        sh.enable_profiling()
        result = sh.range_query("idx", Rectangle(0, 0, 3e5, 3e5))
        prof = result.jobs[-1].phase_profile
        assert prof, "profiled job must carry a phase profile"
        assert any(key.startswith("map/") for key in prof)
        assert "map/self" in prof
        # The history record and its JSON view carry the breakdown too.
        rec = sh.history.last(1)[0]
        assert rec.phase_profile == prof
        assert rec.to_dict()["phase_profile"]
        assert "phase breakdown (profiled)" in sh.history.report(last=1)

    def test_unprofiled_job_ships_no_phase_data(self):
        from repro.core.system import SpatialHadoop
        from repro.datagen import generate_points
        from repro.geometry import Rectangle

        sh = SpatialHadoop(num_nodes=4)
        sh.load("pts", generate_points(400, "uniform", seed=3))
        result = sh.range_query("pts", Rectangle(0, 0, 3e5, 3e5))
        assert result.jobs[-1].phase_profile == {}
        assert "phase breakdown" not in sh.history.report(last=1)

    def test_profile_gauges_are_volatile_named(self):
        from repro.core.system import SpatialHadoop
        from repro.datagen import generate_points
        from repro.geometry import Rectangle
        from repro.observe.telemetry import is_volatile

        sh = SpatialHadoop(num_nodes=4)
        sh.load("pts", generate_points(400, "uniform", seed=3))
        sh.enable_profiling()
        sh.range_query("pts", Rectangle(0, 0, 3e5, 3e5))
        gauges = sh.metrics.snapshot()["gauges"]
        profile_gauges = [g for g in gauges if g.startswith("profile_")]
        assert profile_gauges
        assert all(is_volatile(g) for g in profile_gauges)
        assert all(g.endswith("_s") for g in profile_gauges)

    def test_profiled_knn_records_its_probe_and_kernel(self):
        """kNN time has a phase: the local-index walk on an indexed file
        is ``map/rtree-probe``, the scan ranking on a heap file is
        ``map/kernel``."""
        from repro.core.system import SpatialHadoop
        from repro.datagen import generate_points
        from repro.geometry import Point

        sh = SpatialHadoop(num_nodes=4, block_capacity=500)
        sh.load("pts", generate_points(2000, "uniform", seed=3))
        sh.index("pts", "idx", technique="str")
        sh.enable_profiling()
        query = Point(4e5, 6e5)
        indexed = sh.knn("idx", query, 7).jobs[0].phase_profile
        assert "map/rtree-probe" in indexed, sorted(indexed)
        heap = sh.knn("pts", query, 7).jobs[0].phase_profile
        assert "map/kernel" in heap, sorted(heap)
