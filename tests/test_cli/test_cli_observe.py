"""CLI tests for the observability surface: --trace, -v, history."""

import json

import pytest

from repro.cli import main
from repro.observe import read_jsonl


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


class TestTraceFlag:
    def test_trace_writes_parseable_jsonl(self, indexed_ws, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        assert run(
            indexed_ws, "--trace", str(trace),
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        ) == 0
        assert "[trace]" in capsys.readouterr().err

        header = json.loads(trace.read_text().splitlines()[0])
        assert header["type"] == "trace"
        records = read_jsonl(trace)
        assert records
        kinds = {r["kind"] for r in records}
        assert {"job", "wave", "task", "operation"} <= kinds

    def test_trace_writes_chrome_file(self, indexed_ws, tmp_path, capsys):
        trace = tmp_path / "out.jsonl"
        run(
            indexed_ws, "--trace", str(trace),
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        )
        chrome = tmp_path / "out.chrome.json"
        doc = json.loads(chrome.read_text())
        assert doc["traceEvents"]
        assert {e["ph"] for e in doc["traceEvents"]} <= {"X", "i"}

    def test_tracer_not_pickled_into_workspace(
        self, indexed_ws, tmp_path, capsys
    ):
        trace = tmp_path / "out.jsonl"
        run(
            indexed_ws, "--trace", str(trace),
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        )
        from repro.core.workspace import load_workspace

        sh = load_workspace(indexed_ws)
        assert not sh.tracer.enabled
        assert not sh.runner.recorder.tracer.enabled

    def test_no_trace_flag_writes_nothing(self, indexed_ws, tmp_path, capsys):
        run(indexed_ws, "rangequery", "idx", "--window", "0,0,3e5,3e5")
        assert "[trace]" not in capsys.readouterr().err
        assert not list(tmp_path.glob("*.jsonl"))


class TestVerboseFlag:
    def test_query_prints_counter_table(self, indexed_ws, capsys):
        assert run(
            indexed_ws, "-v", "rangequery", "idx", "--window", "0,0,3e5,3e5"
        ) == 0
        out = capsys.readouterr().out
        assert "[counters]" in out
        assert "BLOCKS_READ" in out
        assert "MAP_INPUT_RECORDS" in out

    def test_without_verbose_no_table(self, indexed_ws, capsys):
        run(indexed_ws, "rangequery", "idx", "--window", "0,0,3e5,3e5")
        assert "[counters]" not in capsys.readouterr().out

    def test_info_verbose_shows_workspace_metrics(self, indexed_ws, capsys):
        run(indexed_ws, "-v", "info", "idx")
        out = capsys.readouterr().out
        assert "workspace metrics:" in out
        assert "JOBS_TOTAL" in out


class TestHistoryCommand:
    def test_empty_history(self, ws, capsys):
        run(ws, "generate", "pts", "--n", "100")
        capsys.readouterr()
        # generate runs no MapReduce job, so the history stays empty
        assert run(ws, "history") == 0
        assert "job history is empty" in capsys.readouterr().out

    def test_report_renders_after_queries(self, indexed_ws, capsys):
        run(indexed_ws, "rangequery", "idx", "--window", "0,0,3e5,3e5")
        capsys.readouterr()
        assert run(indexed_ws, "history") == 0
        out = capsys.readouterr().out
        assert "=== job history:" in out
        assert "range-spatial(idx)" in out
        assert "task-duration histogram" in out
        assert "stragglers:" in out
        assert "pruned by the global index" in out
        assert "task-id" in out

    def test_query_history_persists_across_invocations(
        self, indexed_ws, capsys
    ):
        # index building already recorded jobs; a read-only query appends
        # more and the workspace is re-saved even though no file changed
        run(indexed_ws, "history")
        before = capsys.readouterr().out
        run(indexed_ws, "rangequery", "idx", "--window", "0,0,3e5,3e5")
        capsys.readouterr()
        run(indexed_ws, "history")
        after = capsys.readouterr().out
        assert "range-spatial(idx)" not in before
        assert "range-spatial(idx)" in after

    def test_last_n(self, indexed_ws, capsys):
        run(indexed_ws, "rangequery", "idx", "--window", "0,0,3e5,3e5")
        capsys.readouterr()
        assert run(indexed_ws, "history", "--last", "1") == 0
        out = capsys.readouterr().out
        assert "range-spatial(idx)" in out
        assert "sample(pts)" not in out


class TestFaultFlags:
    WINDOW = ("--window", "0,0,1000000,1000000")

    def test_faults_flag_injects_and_retries(self, indexed_ws, capsys):
        clean = run(indexed_ws, "rangequery", "idx", *self.WINDOW)
        clean_out = capsys.readouterr().out
        code = run(
            indexed_ws,
            "--faults", "crash:map:0,crash:map:1",
            "rangequery", "idx", *self.WINDOW,
        )
        out = capsys.readouterr().out
        assert clean == code == 0
        # Same answer line; only the cost line (makespan) may differ.
        assert out.splitlines()[0] == clean_out.splitlines()[0]
        capsys.readouterr()
        assert run(indexed_ws, "history", "--last", "1") == 0
        report = capsys.readouterr().out
        assert "fault summary:" in report
        assert "crash" in report

    def test_fault_plan_is_not_persisted(self, indexed_ws, capsys):
        run(
            indexed_ws,
            "--faults", "crash:map:0",
            "rangequery", "idx", *self.WINDOW,
        )
        capsys.readouterr()
        # The next invocation loads the saved workspace: no plan rides in.
        from repro.core.workspace import load_workspace

        sh = load_workspace(indexed_ws)
        assert sh.runner.faults is None

    def test_bad_faults_spec_errors_out(self, indexed_ws, capsys):
        assert run(
            indexed_ws, "--faults", "nonsense",
            "rangequery", "idx", *self.WINDOW,
        ) == 1
        assert "bad --faults spec" in capsys.readouterr().err

    def test_bad_max_attempts_errors_out(self, indexed_ws, capsys):
        assert run(
            indexed_ws, "--max-attempts", "0",
            "rangequery", "idx", *self.WINDOW,
        ) == 1
        assert "--max-attempts" in capsys.readouterr().err

    def test_max_attempts_bounds_retries(self, indexed_ws, capsys):
        # Every attempt of map task 0 crashes: the job must fail.
        code = run(
            indexed_ws,
            "--faults", "crash:map:0:*", "--max-attempts", "2",
            "rangequery", "idx", *self.WINDOW,
        )
        capsys.readouterr()
        assert code == 1

    def test_speculative_and_timeout_flags_apply(self, indexed_ws, capsys):
        code = run(
            indexed_ws,
            "--faults", "hang:map:0:0:30",
            "--task-timeout", "10", "--speculative",
            "rangequery", "idx", *self.WINDOW,
        )
        assert code == 0
        capsys.readouterr()
        run(indexed_ws, "history", "--last", "1")
        report = capsys.readouterr().out
        assert "timeouts=1" in report
