"""Self-tests of the core benchmark harness (tiny ``--scale``).

    python -m pytest benchmarks/core -q

Not part of tier-1 (``testpaths`` only covers ``tests/``).
"""

from __future__ import annotations

import argparse
import copy
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import spec  # noqa: E402

SCALE = 0.1


def measure(workload: str, seed: int, tmp_path: Path) -> dict:
    args = argparse.Namespace(workload=workload, seed=seed, seconds=0.0,
                              scale=SCALE, trace=0, plant=None)
    return run.measure(args, tmp_path)


def command(*extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", str(SCALE),
         "--seconds", "0", *extra],
        capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("workload", ["query_mix", "serve_zipf"])
def test_seed_fixes_ops_digests_and_counts(workload, tmp_path):
    first = measure(workload, 7, tmp_path)
    again = measure(workload, 7, tmp_path)
    other = measure(workload, 8, tmp_path)
    assert first["ops_failed"] == 0 and other["ops_failed"] == 0
    assert first["digests"] == again["digests"]
    exact = [k for k in first["counts"] if k != "makespan_s"]
    assert [first["counts"][k] for k in exact] == [
        again["counts"][k] for k in exact]
    assert first["ops_per_pass"] == other["ops_per_pass"]
    assert first["digests"] != other["digests"]


@pytest.mark.parametrize("kind", ["wrong", "raise"])
def test_planted_failure_is_counted_and_fails_the_command(kind):
    done = command("--workload", "index_build", "--plant", kind)
    assert done.returncode != 0
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] is False and last["failed"] > 0
    assert last["attempted"] >= last["failed"]


def test_driver_line_carries_every_end_to_end_metric():
    done = command("--workload", "join_cg", "--seed", "3", "--trace", "0")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(spec.END_TO_END)
    for name, (unit, _, _) in spec.END_TO_END.items():
        assert last["metrics"][name]["unit"] == unit
        assert last["metrics"][name]["value"] > 0


def test_traced_run_reports_every_layer_metric_and_writes_spans():
    done = command("--workload", "armed_batch", "--trace", "1")
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last["metrics"]) == set(spec.PER_LAYER)
    assert last["metrics"]["trace.coverage"]["value"] >= 0.95
    assert last["metrics"]["mapreduce.shm.segments_leaked"]["value"] == 0
    lines = (HERE / "out" / "trace_armed_batch.jsonl").read_text().splitlines()
    span = json.loads(lines[0])
    assert {"id", "parent", "name", "layer", "start", "end",
            "workload", "pass"} <= set(span)
    assert {json.loads(line)["layer"] for line in lines} >= {
        "harness", "core", "operations", "mapreduce", "index"}


def test_self_time_is_duration_minus_child_coverage():
    tree = [
        {"id": 0, "parent": None, "layer": "harness", "start": 0.0, "end": 10.0},
        {"id": 1, "parent": 0, "layer": "core", "start": 1.0, "end": 9.0},
        {"id": 2, "parent": 1, "layer": "index", "start": 2.0, "end": 5.0},
        {"id": 3, "parent": 1, "layer": "index", "start": 6.0, "end": 8.0},
    ]
    assert spans.self_times(tree) == {0: 2.0, 1: 3.0, 2: 3.0, 3: 2.0}
    assert spans.by_layer(tree) == {"harness": 2.0, "core": 3.0, "index": 5.0}


def test_every_trace_target_exists_today():
    uninstall, missing = spans.install(spans.Recorder())
    uninstall()
    assert missing == []


def test_benchmark_json_is_the_spec_and_within_the_contract():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert set(committed) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer")
             for row in committed[key]]
    assert len(names) == len(set(names))
    assert all(name.match(n) for n in names)
    for row in committed["workloads"]:
        assert set(row) == {"name", "why"}
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    for row in committed["end_to_end"]:
        assert set(row) == {"name", "unit", "better", "bound"}
        assert unit.match(row["unit"]) and 0 < row["bound"] <= 0.25
    for row in committed["per_layer"]:
        assert set(row) == {"name", "unit", "better"}
        assert unit.match(row["unit"])
    setup = next(r for r in committed["end_to_end"] if r["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(r["bound"] for r in committed["end_to_end"])
    assert 1 <= committed["run_seconds"] <= 60
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


def test_every_layer_metric_names_what_it_moves():
    for name, row in spec.PER_LAYER.items():
        assert row["moves"], name
        for metric, workload in row["moves"]:
            assert metric in spec.END_TO_END, name
            assert workload in spec.WORKLOADS, name
        assert row["source"] in ("probe", "generic", *spec.WORKLOADS), name


def _result(wall: float, q1: float, q3: float, failed: int = 0) -> dict:
    metric = {"value": wall, "q1": q1, "q3": q3, "n": 5}
    one = {
        "ops_attempted": 100, "ops_failed": failed, "environment": {},
        "metrics": {name: dict(metric) for name in spec.END_TO_END},
    }
    return {"traced": False,
            "workloads": {w: copy.deepcopy(one) for w in spec.WORKLOADS}}


def test_compare_verdicts():
    base = _result(1.0, 0.99, 1.01)

    def verdicts(other: dict) -> set:
        return {r["verdict"] for r in compare.compare(base, other)}

    assert verdicts(_result(1.05, 1.0, 1.1)) == {"ok"}
    assert verdicts(_result(0.5, 0.5, 0.5)) == {"ok"}
    assert "regression" in verdicts(_result(1.3, 1.3, 1.3))
    assert "regression" in verdicts(_result(1.0, 1.0, 1.0, failed=1))
    noisy = _result(1.0, 0.8, 1.2)
    assert {r["verdict"] for r in compare.compare(noisy, base)} == {
        "unresolved"}


def test_no_process_outlives_the_run():
    """The resource tracker a shared-memory arena starts is reaped too."""
    code = f"""
import subprocess, sys
sys.path.insert(0, {str(HERE)!r})
import harness
from multiprocessing import shared_memory
segment = shared_memory.SharedMemory(create=True, size=64)
segment.close()
segment.unlink()
subprocess.Popen(["sleep", "60"])
assert len(harness._child_pids()) == 2, harness._child_pids()
harness.stop_children(grace_s=0.1)
print(harness._child_pids())
"""
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
