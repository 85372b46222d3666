"""Run-diff attribution: self-diff is empty; planted regressions are
attributed to the correct job, wave and phase; counters compare exactly."""

import copy
import json

import pytest

from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.geometry import Rectangle
from repro.observe.bundle import collect_bundle, write_bundle
from repro.observe.diff import (
    DEFAULT_ABS_FLOOR_S,
    DiffReport,
    diff_bundles,
    diff_docs,
)

WINDOW = Rectangle(0, 0, 400_000, 400_000)


@pytest.fixture(scope="module")
def doc():
    sh = SpatialHadoop(num_nodes=4, job_overhead_s=0.01, workers=1)
    sh.eventlog(level="info")
    sh.enable_profiling()
    sh.load("pts", generate_points(20_000, "uniform", seed=11))
    sh.index("pts", "idx", technique="str")
    sh.range_query("idx", WINDOW)
    sh.runner.close()
    return collect_bundle(sh, name="base")


class TestSelfDiff:
    def test_run_against_itself_reports_zero_culprits(self, doc):
        report = diff_docs(doc, copy.deepcopy(doc))
        assert report.ok
        assert report.culprits == [] and report.unpaired == []
        assert report.exit_code == 0
        assert "no regressions" in report.render()

    def test_jobs_compared_counted(self, doc):
        report = diff_docs(doc, copy.deepcopy(doc))
        assert report.jobs_compared == len(doc["history"]["jobs"])


def _longest_phase(job):
    return max(e["s"] for e in job["phase_profile"].values())


def _plant_slow_phase(doc, factor=3.0):
    """Triple every profiled phase of the job with the longest phase.

    Tripling adds twice the phase, which must clear diff's absolute floor
    or diff rightly calls it noise; the fixture's 20 000 points keep the
    longest phase (an index-build job's map) milliseconds long.
    """
    slow = copy.deepcopy(doc)
    target = max(
        (j for j in slow["history"]["jobs"] if j["phase_profile"]),
        key=_longest_phase,
    )
    longest = _longest_phase(target)
    assert (factor - 1) * longest > DEFAULT_ABS_FLOOR_S, (
        f"the longest phase ({1e3 * longest:.3f} ms, {target['name']}) is "
        f"too short for a {factor}x slowdown to clear diff's "
        f"{1e3 * DEFAULT_ABS_FLOOR_S} ms floor: enlarge the fixture's data"
    )
    for entry in target["phase_profile"].values():
        entry["s"] *= factor
    return slow, target["name"]


class TestPlantedRegression:
    def test_three_x_phase_attributed_to_correct_job_and_phase(self, doc):
        slow, job_name = _plant_slow_phase(doc)
        report = diff_docs(doc, slow)
        assert not report.ok and report.exit_code == 1
        phase_culprits = [c for c in report.culprits if c["kind"] == "phase"]
        assert phase_culprits, "the planted phase must surface"
        top = phase_culprits[0]
        assert top["job"] == job_name
        assert top["delta"] > 0 and top["unit"] == "s"
        assert top["pct"] == pytest.approx(66.7, abs=0.1)  # 3x = +66.7% of max
        # every culprit points at the planted job, nothing else drifted
        assert {c["job"] for c in report.culprits} == {job_name}

    def test_wave_regression_attributed(self, doc):
        slow = copy.deepcopy(doc)
        job = slow["history"]["jobs"][0]
        job["cost"]["map"] *= 3
        report = diff_docs(doc, slow)
        waves = [c for c in report.culprits if c["kind"] == "wave"]
        assert waves and waves[0]["where"] == "cost/map"
        assert waves[0]["job"] == job["name"]

    def test_time_culprits_ranked_by_magnitude_first(self, doc):
        slow = copy.deepcopy(doc)
        jobs = slow["history"]["jobs"]
        jobs[0]["cost"]["map"] += 0.5
        jobs[0]["counters"]["RECORDS_READ"] = (
            jobs[0]["counters"].get("RECORDS_READ", 0) + 10_000
        )
        jobs[1]["cost"]["reduce"] += 2.0
        report = diff_docs(doc, slow)
        assert report.culprits[0]["where"] == "cost/reduce"
        assert report.culprits[0]["delta"] == pytest.approx(2.0)
        # counters rank after every timing delta, however large:
        units = [c["unit"] for c in report.culprits]
        assert units.index("count") > max(
            i for i, u in enumerate(units) if u == "s"
        )


class TestExactQuantities:
    def test_any_counter_drift_is_a_culprit(self, doc):
        drifted = copy.deepcopy(doc)
        job = drifted["history"]["jobs"][0]
        job["counters"]["RECORDS_READ"] = (
            job["counters"].get("RECORDS_READ", 0) + 1
        )
        report = diff_docs(doc, drifted)
        assert any(
            c["kind"] == "counter" and c["where"] == "RECORDS_READ"
            for c in report.culprits
        )

    def test_partition_skew_reported_per_cell(self, doc):
        skewed = copy.deepcopy(doc)
        cell = next(
            f for f in skewed["files"] if f.get("cells")
        )["cells"][0]
        cell["records"] += 50
        report = diff_docs(doc, skewed)
        partition = [c for c in report.culprits if c["kind"] == "partition"]
        assert partition and f"cell-{cell['id']}" in partition[0]["where"]
        assert partition[0]["delta"] == 50

    def test_task_record_drift_reported(self, doc):
        drifted = copy.deepcopy(doc)
        task = drifted["history"]["jobs"][0]["map_tasks"][0]
        task["records_out"] += 5
        report = diff_docs(doc, drifted)
        assert any(
            c["kind"] == "task" and "records_out" in c["where"]
            for c in report.culprits
        )


class TestToleranceAndPairing:
    def test_timing_noise_inside_band_ignored(self, doc):
        noisy = copy.deepcopy(doc)
        job = noisy["history"]["jobs"][0]
        job["makespan"] *= 1.005  # 0.5% < the 1% default band
        assert diff_docs(doc, noisy).ok

    def test_abs_floor_suppresses_tiny_deltas(self, doc):
        noisy = copy.deepcopy(doc)
        job = noisy["history"]["jobs"][0]
        job["makespan"] += 0.0005  # below the 1ms floor
        assert diff_docs(doc, noisy, tolerance_pct=0.0).ok

    def test_unpaired_jobs_reported_not_dropped(self, doc):
        shorter = copy.deepcopy(doc)
        removed = shorter["history"]["jobs"].pop()
        report = diff_docs(doc, shorter)
        assert not report.ok
        assert ("a", removed["name"], 0) in [
            (side, name, idx) for side, name, idx in report.unpaired
        ]
        assert "only in a" in report.render()

    def test_repeated_job_names_pair_by_occurrence(self, doc):
        twice = copy.deepcopy(doc)
        twice["history"]["jobs"].append(
            copy.deepcopy(twice["history"]["jobs"][0])
        )
        report = diff_docs(twice, copy.deepcopy(twice))
        assert report.ok
        assert report.jobs_compared == len(twice["history"]["jobs"])


class TestRendering:
    def test_json_round_trips(self, doc):
        slow, _ = _plant_slow_phase(doc)
        report = diff_docs(doc, slow, label_a="A", label_b="B")
        decoded = json.loads(report.to_json())
        assert decoded["a"] == "A" and decoded["ok"] is False
        assert decoded["culprits"] == report.to_dict()["culprits"]

    def test_text_table_lists_ranked_culprits(self, doc):
        slow, job_name = _plant_slow_phase(doc)
        text = diff_docs(doc, slow).render()
        assert "worst first" in text
        assert job_name in text


class TestDiffBundles:
    def test_loads_and_labels_by_path(self, doc, tmp_path):
        a = tmp_path / "a.bundle"
        b = tmp_path / "b.bundle"
        write_bundle(doc, a)
        slow, _ = _plant_slow_phase(doc)
        write_bundle(slow, b)
        report = diff_bundles(a, b)
        assert isinstance(report, DiffReport)
        assert report.label_a == str(a) and not report.ok
        assert diff_bundles(a, a).ok
