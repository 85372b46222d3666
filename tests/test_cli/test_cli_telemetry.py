"""CLI tests for the telemetry pipeline: metrics, profile, sentinel,
--telemetry, and the backend-determinism property of the scrape log."""

import json

import pytest

from repro.cli import main
from repro.observe.telemetry import parse_exposition


@pytest.fixture
def ws(tmp_path):
    return str(tmp_path / "ws.pkl")


def run(ws, *argv):
    return main(["-w", ws, *argv])


@pytest.fixture
def indexed_ws(ws, capsys):
    run(ws, "generate", "pts", "--n", "2000")
    run(ws, "index", "pts", "idx", "--technique", "str")
    capsys.readouterr()
    return ws


class TestMetricsCommand:
    def test_prom_output_passes_strict_lint(self, indexed_ws, capsys):
        assert run(indexed_ws, "metrics") == 0
        out = capsys.readouterr().out
        families = parse_exposition(out)  # raises on any format violation
        assert "repro_jobs_total" in families
        labels = families["repro_jobs_total"]["samples"][0][0]
        assert set(labels) == {"workers"}

    def test_json_output(self, indexed_ws, capsys):
        assert run(indexed_ws, "metrics", "--format", "json") == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["JOBS_TOTAL"] >= 1


class TestProfileFlagAndCommand:
    def test_profile_flag_feeds_profile_command(
        self, indexed_ws, tmp_path, capsys
    ):
        assert run(
            indexed_ws, "--profile",
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        ) == 0
        capsys.readouterr()
        svg = tmp_path / "phases.svg"
        assert run(
            indexed_ws, "profile", "--flamegraph", str(svg)
        ) == 0
        out = capsys.readouterr().out
        assert "1 profiled job(s)" in out
        assert "map/" in out
        assert svg.read_text().startswith("<svg")

    def test_profile_flag_not_persisted(self, indexed_ws, capsys):
        run(
            indexed_ws, "--profile",
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        )
        from repro.core.workspace import load_workspace

        sh = load_workspace(indexed_ws)
        assert sh.runner.recorder.profile is None

    def test_flamegraph_without_profiled_jobs_errors(
        self, indexed_ws, tmp_path, capsys
    ):
        assert run(
            indexed_ws, "profile", "--flamegraph", str(tmp_path / "f.svg")
        ) == 1
        assert "no profiled jobs" in capsys.readouterr().err

    def test_history_json_carries_phase_breakdown(self, indexed_ws, capsys):
        run(
            indexed_ws, "--profile",
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        )
        capsys.readouterr()
        assert run(indexed_ws, "history", "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["jobs"][-1]["phase_profile"]


class TestSentinelCommand:
    def test_clean_baseline_exits_zero(self, ws, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"e2": {"wall_s": 1.0, "speedup": 2.0}}))
        assert run(ws, "sentinel", "--baseline", str(bench)) == 0
        assert "PASS" in capsys.readouterr().out

    def test_regression_exits_nonzero(self, ws, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps({"e2": {"wall_s": 1.0}}))
        cur.write_text(json.dumps({"e2": {"wall_s": 9.0}}))
        assert run(
            ws, "sentinel", "--baseline", str(base), "--current", str(cur),
        ) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_format_and_tolerance(self, ws, tmp_path, capsys):
        base = tmp_path / "base.json"
        cur = tmp_path / "cur.json"
        base.write_text(json.dumps({"wall_s": 1.0}))
        cur.write_text(json.dumps({"wall_s": 1.5}))
        assert run(
            ws, "sentinel", "--baseline", str(base), "--current", str(cur),
            "--tolerance", "100", "--format", "json",
        ) == 0
        assert json.loads(capsys.readouterr().out)["healthy"] is True

    def test_missing_baseline_is_a_clean_error(self, ws, capsys):
        assert run(ws, "sentinel", "--baseline", "no-such.json") == 1
        assert "error" in capsys.readouterr().err


class TestTelemetryFlag:
    def test_scrapes_exported_and_accumulated(
        self, indexed_ws, tmp_path, capsys
    ):
        log = tmp_path / "scrapes.jsonl"
        assert run(
            indexed_ws, "--telemetry", str(log),
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        ) == 0
        assert "[telemetry]" in capsys.readouterr().err
        records = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert [r["event"] for r in records] == [
            "job-start", "wave:map", "job-end"
        ]
        # A second invocation appends to the workspace-pickled log.
        run(
            indexed_ws, "--telemetry", str(log),
            "rangecount", "idx", "--window", "0,0,3e5,3e5",
        )
        records = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert len(records) == 7  # 3 + 4 (rangecount has a reduce wave)
        assert [r["seq"] for r in records] == list(range(7))

    def test_scrape_log_accumulates_across_many_invocations(
        self, indexed_ws, tmp_path, capsys
    ):
        """The pickled TelemetryLog is one continuous stream: every
        invocation appends, seq never restarts, and a fresh export file
        resumes from the persisted sequence rather than from zero."""
        first = tmp_path / "first.jsonl"
        for _ in range(3):
            assert run(
                indexed_ws, "--telemetry", str(first),
                "rangequery", "idx", "--window", "0,0,3e5,3e5",
            ) == 0
        capsys.readouterr()
        records = [
            json.loads(line) for line in first.read_text().splitlines()
        ]
        assert len(records) == 9  # 3 scrapes per range query
        assert [r["seq"] for r in records] == list(range(9))
        assert [r["event"] for r in records] == [
            "job-start", "wave:map", "job-end"
        ] * 3

        # The workspace itself holds the full stream, not just the file.
        from repro.core.workspace import load_workspace

        sh = load_workspace(indexed_ws)
        assert [r["seq"] for r in sh.runner.recorder.telemetry.records] == list(
            range(9)
        )

        # A new export target receives the whole accumulated stream —
        # the 9 persisted scrapes plus the new invocation's 3.
        second = tmp_path / "second.jsonl"
        run(
            indexed_ws, "--telemetry", str(second),
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        )
        fresh = [
            json.loads(line) for line in second.read_text().splitlines()
        ]
        assert [r["seq"] for r in fresh] == list(range(12))
        # Counters are cumulative across the whole stream: the last
        # job-end scrape has seen every job so far.
        assert fresh[-1]["counters"]["JOBS_TOTAL"] >= 6


def _scrape_bytes(tmp_path, monkeypatch, tag, workers=None):
    """One full generate/index/query session; returns the scrape log bytes."""
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    ws = str(tmp_path / f"ws_{tag}.pkl")
    log = tmp_path / f"scrapes_{tag}.jsonl"
    extra = ["--workers", str(workers)] if workers else []
    assert main(["-w", ws, *extra, "generate", "pts", "--n", "3000"]) == 0
    assert main(
        ["-w", ws, *extra, "index", "pts", "idx", "--technique", "grid"]
    ) == 0
    assert main([
        "-w", ws, *extra, "--telemetry", str(log),
        "rangecount", "idx", "--window", "0,0,4e5,4e5",
    ]) == 0
    return log.read_bytes()


class TestScrapeDeterminism:
    @pytest.mark.usefixtures("pool_pinned")
    def test_bit_identical_serial_vs_workers(
        self, tmp_path, monkeypatch, capsys
    ):
        serial = _scrape_bytes(tmp_path, monkeypatch, "serial")
        parallel = _scrape_bytes(tmp_path, monkeypatch, "par", workers=2)
        assert serial == parallel
