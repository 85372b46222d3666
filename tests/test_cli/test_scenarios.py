"""Storage-fault scenarios driven through the CLI, one process per verb.

Each scenario builds a 30 000-record workspace with ``repro generate`` and
``repro index``, then damages it from the outside: a faulted read that
must fail over to the same answer, ``fsck`` that must report, repair and
come back clean, and a flipped workspace byte that must be refused on one
``error:`` line. Every verb is its own ``python -m repro`` process, so
the block checksums cross a save and a load between every step; the
polygon variant carries the record-path CRC (polygon blocks have no
columns) across those boundaries too.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parents[2] / "src")
WINDOW = "0,0,2e5,2e5"


def repro(cwd, *argv):
    """Run ``python -m repro -w ws.pkl ...`` in ``cwd``."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=300,
    )


def answer(proc):
    """stdout without the ``[cost]`` lines, which carry measured time."""
    assert proc.returncode == 0, proc.stderr
    return [line for line in proc.stdout.splitlines()
            if not line.startswith("[cost]")]


@pytest.fixture(scope="module", params=["point", "polygon"])
def damaged(request, tmp_path_factory):
    """A workspace whose replicas a faulted read damaged, and both
    answers: ``(directory, clean answer, faulted answer)``."""
    cwd = tmp_path_factory.mktemp(f"scenario-{request.param}")
    for argv in (
        ["generate", "pts", "--n", "30000", "--shape", request.param],
        ["index", "pts", "idx", "--technique", "str"],
    ):
        proc = repro(cwd, "-w", "ws.pkl", *argv)
        assert proc.returncode == 0, proc.stderr
    clean = answer(repro(cwd, "-w", "ws.pkl", "rangequery", "idx",
                         "--window", WINDOW))
    faulted = answer(repro(cwd, "-w", "ws.pkl",
                           "--faults", "losenode:2,corruptblock:idx:0",
                           "rangequery", "idx", "--window", WINDOW))
    return cwd, clean, faulted


def test_reads_fail_over_and_the_answer_does_not_move(damaged):
    _, clean, faulted = damaged
    assert clean and faulted == clean


def test_fsck_reports_repairs_and_comes_back_clean(damaged):
    cwd = damaged[0]
    before = repro(cwd, "-w", "ws.pkl", "fsck")
    assert "NOT healthy" in before.stdout, before.stdout + before.stderr
    repair = repro(cwd, "-w", "ws.pkl", "fsck", "--repair")
    assert "REPAIRED" in repair.stdout, repair.stdout + repair.stderr
    report = repro(cwd, "-w", "ws.pkl", "fsck", "--format", "json")
    doc = json.loads(report.stdout)
    assert doc["healthy"], doc
    assert doc["issues"] == 0, doc


def test_a_flipped_workspace_byte_fails_cleanly(damaged):
    cwd = damaged[0]
    raw = bytearray((cwd / "ws.pkl").read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    (cwd / "ws-damaged.pkl").write_bytes(bytes(raw))
    proc = repro(cwd, "-w", "ws-damaged.pkl", "ls")
    assert proc.returncode == 1
    assert "error:" in proc.stderr
    assert "checksum" in proc.stderr
    assert "Traceback" not in proc.stderr
