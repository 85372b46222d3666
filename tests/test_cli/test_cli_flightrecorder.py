"""CLI tests for the flight recorder: --log-level/logs, bundle
export/import/inspect, diff, and report."""

import json

import pytest

from repro.cli import main
from repro.core.workspace import load_workspace


@pytest.fixture
def ws(tmp_path):
    return str(tmp_path / "ws.pkl")


def run(ws, *argv):
    return main(["-w", ws, *argv])


def log_session(ws, capsys, n):
    """Generate ``n`` points, then index and query them, profiled."""
    run(ws, "--log-level", "debug", "generate", "pts", "--n", str(n))
    run(ws, "--profile", "index", "pts", "idx", "--technique", "str")
    run(ws, "--profile", "rangequery", "idx", "--window", "0,0,4e5,4e5")
    capsys.readouterr()
    return ws


@pytest.fixture
def logged_ws(ws, capsys):
    return log_session(ws, capsys, 2000)


class TestLogLevelFlag:
    def test_armed_log_persists_across_invocations(self, logged_ws):
        sh = load_workspace(logged_ws)
        log = sh.runner.recorder.eventlog
        assert log is not None and log.level == "debug"
        # later commands (without the flag) kept recording:
        events = [r["event"] for r in log.records()]
        assert "file-loaded" in events and "job-finished" in events

    def test_unarmed_workspace_has_no_log(self, ws, capsys):
        run(ws, "generate", "pts", "--n", "500")
        sh = load_workspace(ws)
        assert sh.runner.recorder.eventlog is None

    def test_bad_level_rejected_by_argparse(self, ws):
        with pytest.raises(SystemExit):
            run(ws, "--log-level", "loud", "ls")


class TestLogsCommand:
    def test_text_report(self, logged_ws, capsys):
        assert run(logged_ws, "logs") == 0
        out = capsys.readouterr().out
        assert "job-finished" in out
        assert "event(s)" in out

    def test_filters(self, logged_ws, capsys):
        assert run(logged_ws, "logs", "--grep", "index-built") == 0
        out = capsys.readouterr().out
        assert "index-built" in out and "job-started" not in out
        assert run(logged_ws, "logs", "--level", "info") == 0
        assert "job-timing" not in capsys.readouterr().out  # debug-level

    def test_json_and_normalize(self, logged_ws, capsys):
        assert run(logged_ws, "logs", "--format", "json", "--normalize") == 0
        records = json.loads(capsys.readouterr().out)
        assert records and all("volatile" not in r for r in records)
        assert [r["seq"] for r in records] == list(range(len(records)))

    def test_unarmed_workspace_explains_itself(self, ws, capsys):
        run(ws, "generate", "pts", "--n", "100")
        capsys.readouterr()
        assert run(ws, "logs") == 0
        assert "--log-level" in capsys.readouterr().out


class TestBundleCommand:
    def test_export_inspect_import_cycle(self, logged_ws, tmp_path, capsys):
        bundle = tmp_path / "run.bundle"
        assert run(logged_ws, "bundle", "export", str(bundle), "--name", "A") == 0
        assert "exported run bundle 'A'" in capsys.readouterr().out

        assert run(logged_ws, "bundle", "inspect", str(bundle)) == 0
        out = capsys.readouterr().out
        assert "name: A" in out and "job(s) retained" in out

        fresh = str(tmp_path / "fresh.pkl")
        run(fresh, "generate", "other", "--n", "100")
        capsys.readouterr()
        assert run(fresh, "bundle", "import", str(bundle)) == 0
        assert "imported" in capsys.readouterr().out
        sh = load_workspace(fresh)
        assert len(sh.history) >= 3  # the imported run's jobs
        assert run(fresh, "history") == 0  # history renders post-import

    def test_corrupt_bundle_is_a_clean_error(self, ws, tmp_path, capsys):
        bad = tmp_path / "bad.bundle"
        bad.write_bytes(b"REPROBN\n" + b"\x00" * 4)
        assert run(ws, "bundle", "inspect", str(bad)) == 1
        assert "error" in capsys.readouterr().err


class TestDiffCommand:
    @pytest.fixture
    def logged_ws(self, ws, capsys):
        # 20 000 points keep the longest profiled phase milliseconds long,
        # so the planted slowdown below clears diff's absolute floor.
        return log_session(ws, capsys, 20_000)

    @pytest.fixture
    def bundles(self, logged_ws, tmp_path, capsys):
        a = tmp_path / "a.bundle"
        run(logged_ws, "bundle", "export", str(a))
        # plant a 3x slower phase into a copy: every phase of the job
        # with the longest phase
        from repro.observe.bundle import read_bundle, write_bundle
        from repro.observe.diff import DEFAULT_ABS_FLOOR_S

        doc = read_bundle(a)
        import copy as copy_mod

        slow = copy_mod.deepcopy(doc)

        def longest(job):
            return max(e["s"] for e in job["phase_profile"].values())

        target = max(
            (j for j in slow["history"]["jobs"] if j["phase_profile"]),
            key=longest,
        )
        assert 2 * longest(target) > DEFAULT_ABS_FLOOR_S, (
            f"the longest phase ({1e3 * longest(target):.3f} ms, "
            f"{target['name']}) is too short for a 3x slowdown to clear "
            f"diff's {1e3 * DEFAULT_ABS_FLOOR_S} ms floor: enlarge the data"
        )
        for entry in target["phase_profile"].values():
            entry["s"] *= 3
        b = tmp_path / "b.bundle"
        write_bundle(slow, b)
        capsys.readouterr()
        return str(a), str(b), target["name"]

    def test_self_diff_exits_zero(self, logged_ws, bundles, capsys):
        a, _, _ = bundles
        assert run(logged_ws, "diff", a, a) == 0
        assert "no regressions" in capsys.readouterr().out

    def test_planted_regression_exits_nonzero_and_names_culprit(
        self, logged_ws, bundles, capsys
    ):
        a, b, job_name = bundles
        assert run(logged_ws, "diff", a, b) == 1
        out = capsys.readouterr().out
        assert "culprit(s), worst first" in out
        assert job_name in out

    def test_json_format(self, logged_ws, bundles, capsys):
        a, b, _ = bundles
        assert run(logged_ws, "diff", a, b, "--format", "json") == 1
        decoded = json.loads(capsys.readouterr().out)
        assert decoded["ok"] is False and decoded["culprits"]

    def test_tolerance_flag_widens_the_band(self, logged_ws, bundles, capsys):
        a, b, _ = bundles
        assert run(
            logged_ws, "diff", a, b, "--tolerance", "99", "--abs-floor", "10"
        ) == 0


class TestReportCommand:
    def test_report_from_live_workspace(self, logged_ws, tmp_path, capsys):
        out_file = tmp_path / "report.html"
        assert run(logged_ws, "report", "--out", str(out_file)) == 0
        assert "wrote ops dashboard" in capsys.readouterr().out
        html = out_file.read_text()
        assert "http" not in html.lower()
        assert "<h2>Wave timeline</h2>" in html

    def test_report_from_bundle_with_diff_view(
        self, logged_ws, tmp_path, capsys
    ):
        bundle = tmp_path / "a.bundle"
        run(logged_ws, "bundle", "export", str(bundle))
        out_file = tmp_path / "report.html"
        assert run(
            logged_ws, "report",
            "--bundle", str(bundle), "--vs", str(bundle),
            "--out", str(out_file),
        ) == 0
        html = out_file.read_text()
        assert "<h2>Run diff</h2>" in html
        assert "no regressions" in html
        assert "http" not in html.lower()
