"""CLI tests for explain, doctor, and --progress."""

import json

import pytest

from repro.cli import main


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


class TestExplainCommand:
    def test_text_tree(self, indexed_ws, capsys):
        assert run(indexed_ws, "explain", "range idx 0,0,3e5,3e5") == 0
        out = capsys.readouterr().out
        assert out.startswith("EXPLAIN")
        assert "GlobalIndexFilter" in out
        assert "est:" in out
        assert "act:" not in out

    def test_query_tokens_are_joined(self, indexed_ws, capsys):
        assert run(
            indexed_ws, "explain", "range", "idx", "0,0,3e5,3e5"
        ) == 0
        assert "RangeQuery(idx)" in capsys.readouterr().out

    def test_analyze_json_is_valid(self, indexed_ws, capsys):
        assert run(
            indexed_ws, "explain", "--analyze", "--format", "json",
            "range idx 0,0,3e5,3e5",
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["analyzed"] is True
        (job,) = [
            n for n in doc["plan"]["children"] if n["kind"] == "job"
        ]
        assert "blocks_read" in job["actual"]
        assert "blocks_read_error" in job["actual"]

    def test_bad_query_is_an_error(self, indexed_ws, capsys):
        assert run(indexed_ws, "explain", "frobnicate idx") == 1
        assert "error:" in capsys.readouterr().err

    def test_pigeon_inline(self, indexed_ws, capsys):
        script = (
            "a = LOAD 'idx'; "
            "b = FILTER a BY Overlaps(geom, MakeBox(0, 0, 3e5, 3e5)); "
            "DUMP b;"
        )
        assert run(indexed_ws, "explain", "--pigeon", script) == 0
        out = capsys.readouterr().out
        assert "PigeonScript" in out
        assert "indexed-range" in out

    def test_pigeon_script_file(self, indexed_ws, tmp_path, capsys):
        path = tmp_path / "q.pig"
        path.write_text("a = LOAD 'idx'; s = SKYLINE a; DUMP s;")
        assert run(
            indexed_ws, "explain", "--pigeon", "--analyze", str(path)
        ) == 0
        out = capsys.readouterr().out
        assert out.startswith("ANALYZE")
        assert "UNARYOPERATION" in out


class TestDoctorCommand:
    def test_text_report(self, indexed_ws, capsys):
        assert run(indexed_ws, "doctor", "idx") == 0
        assert "index doctor: idx" in capsys.readouterr().out

    def test_json_output(self, indexed_ws, capsys):
        assert run(indexed_ws, "doctor", "idx", "--format", "json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["file"] == "idx"
        assert "findings" in doc

    def test_heap_file_is_an_error(self, indexed_ws, capsys):
        assert run(indexed_ws, "doctor", "pts") == 1
        assert "not spatially indexed" in capsys.readouterr().err

    def test_heatmap_artifact(self, indexed_ws, tmp_path, capsys):
        heat = tmp_path / "heat.svg"
        assert run(
            indexed_ws, "doctor", "idx", "--heatmap", str(heat)
        ) == 0
        assert heat.read_text().startswith("<svg")
        assert "wrote svg heatmap" in capsys.readouterr().err


class TestProgressFlag:
    def test_progress_streams_to_stderr(self, indexed_ws, capsys):
        assert run(
            indexed_ws, "--progress",
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        ) == 0
        err = capsys.readouterr().err
        assert "[progress]" in err
        assert "map wave" in err

    def test_reporter_not_pickled_into_workspace(self, indexed_ws, capsys):
        run(
            indexed_ws, "--progress",
            "rangequery", "idx", "--window", "0,0,3e5,3e5",
        )
        capsys.readouterr()
        # The workspace must reload cleanly in a progress-free invocation.
        assert run(indexed_ws, "ls") == 0
        from repro.core.workspace import load_workspace

        sh = load_workspace(indexed_ws)
        assert sh.runner.recorder.progress is None
