"""Fault scenarios driven through the CLI, one process per verb.

Each storage scenario builds a 30 000-record workspace with ``repro
generate`` and ``repro index``, then damages it from the outside: a
faulted read that must fail over to the same answer, ``fsck`` that must
report, repair and come back clean, and a flipped workspace byte that
must be refused on one ``error:`` line. Every verb is its own ``python
-m repro`` process, so the block checksums cross a save and a load
between every step; the polygon variant carries the record-path CRC
(polygon blocks have no columns) across those boundaries too.

The chaos smoke runs one workflow -- two indexed files, a range query
and a spatial join -- fault-free and then with two pool workers under
task crashes and a worker kill, from ``REPRO_FAULTS``; the faulted
answers must equal the fault-free ones, and ``history`` must record the
retried attempts.

The channel scenario builds one workspace twice, serially and with
``--workers 2``, with every observability channel armed; the normalized
trace of each command, the event log and the scrape log must not depend
on the backend.

The trace scenario runs an indexed range query on a 50 000-point index
with ``--trace`` and checks the JSONL trace and its Chrome export.

The service scenario replays the recorded request script
``examples/serve_requests.jsonl`` through ``repro serve`` under combined
task, storage and service chaos; virtual-time serving makes every
outcome count golden.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.mapreduce.executor import WORKERS_ENV_VAR

ROOT = Path(__file__).resolve().parents[2]
SRC = str(ROOT / "src")
WINDOW = "0,0,2e5,2e5"


def repro(cwd, *argv, faults=None):
    """Run ``python -m repro -w ws.pkl ...`` in ``cwd``, with
    ``REPRO_FAULTS`` set to ``faults`` (unset when None)."""
    env = {k: v for k, v in os.environ.items() if k != "REPRO_FAULTS"}
    if faults is not None:
        env["REPRO_FAULTS"] = faults
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


#: Crashed map and reduce attempts, a killed pool worker and a seeded
#: background crash rate: every one must be retried transparently.
CHAOS_FAULTS = ("seed:11,kill:map:1,crash:map:0,crash:map:2,"
                "crash:reduce:0,random:crash:0.05:7")


@pytest.fixture(scope="module")
def chaos_smoke(tmp_path_factory):
    """The same workflow fault-free and under :data:`CHAOS_FAULTS` with
    ``--workers 2``: ``{run: (range answer, sjoin answer, history)}``."""
    cwd = tmp_path_factory.mktemp("scenario-chaos")
    runs = {}
    for run, flags, faults in (("clean", [], None),
                               ("chaos", ["--workers", "2"], CHAOS_FAULTS)):
        def verb(*argv):
            return repro(cwd, "-w", f"{run}.pkl", *flags, *argv,
                         faults=faults)

        for argv in (
            ["generate", "pts", "--n", "30000"],
            ["index", "pts", "idx", "--technique", "str"],
            ["generate", "other", "--n", "8000", "--shape", "rect",
             "--seed", "3"],
            ["index", "other", "oidx", "--technique", "grid"],
        ):
            proc = verb(*argv)
            assert proc.returncode == 0, proc.stderr
        runs[run] = (
            answer(verb("rangequery", "idx", "--window", WINDOW)),
            answer(verb("sjoin", "idx", "oidx")),
            answer(repro(cwd, "-w", f"{run}.pkl", "history", faults=faults)),
        )
    return runs


def test_chaos_smoke_answers_equal_the_fault_free_run(chaos_smoke):
    clean, chaos = chaos_smoke["clean"], chaos_smoke["chaos"]
    assert clean[0] and chaos[0] == clean[0]
    assert clean[1] and chaos[1] == clean[1]


def test_chaos_smoke_history_records_the_retried_attempts(chaos_smoke):
    history = "\n".join(chaos_smoke["chaos"][2])
    assert "fault summary:" in history
    assert "attempts (" in history


#: Task crashes retry transparently, the corrupt replica fails over,
#: bob's queue is flooded by the burst fault, carol pays the slowtenant
#: surcharge.
SERVE_CHAOS = ("seed:11,random:crash:0.05:7,corruptblock:idx:0,"
               "burst:bob:3,slowtenant:carol:2")


@pytest.fixture(scope="module")
def serve_chaos(tmp_path_factory):
    """The request script replayed under combined chaos on a shared
    multi-tenant workspace: ``(directory, summary, wire responses)``."""
    cwd = tmp_path_factory.mktemp("scenario-serve")
    for argv in (
        ["generate", "pts", "--n", "30000", "--seed", "42"],
        ["index", "pts", "idx", "--technique", "str"],
        ["generate", "other", "--n", "8000", "--shape", "rect",
         "--seed", "3"],
        ["index", "other", "oidx", "--technique", "grid"],
    ):
        proc = repro(cwd, "-w", "ws.pkl", *argv)
        assert proc.returncode == 0, proc.stderr
    proc = repro(
        cwd, "-w", "ws.pkl", "--telemetry", "scrapes.jsonl",
        "--log-level", "info", "--faults", SERVE_CHAOS,
        "serve", "--script", str(ROOT / "examples" / "serve_requests.jsonl"),
        "--quota", "bob=queue=2,inflight=1", "--summary", "summary.json",
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((cwd / "summary.json").read_text())
    responses = [json.loads(line) for line in proc.stdout.splitlines()
                 if line.startswith("{")]
    return cwd, summary, responses


def test_serve_chaos_outcome_counts_are_golden(serve_chaos):
    _, summary, _ = serve_chaos
    golden = {
        "requests": 9, "served": 6, "degraded": 0,
        "overloaded": 3, "deadline": 0, "error": 0,
    }
    assert {k: summary[k] for k in golden} == golden
    assert summary["cache"]["hits"] == 2, summary["cache"]


def test_serve_chaos_answers_every_request_once(serve_chaos):
    _, _, responses = serve_chaos
    assert [r["id"] for r in responses] == list(range(1, 10))


def test_serve_chaos_sheds_only_the_flooded_tenant(serve_chaos):
    _, _, responses = serve_chaos
    shed = [r for r in responses if r["outcome"] == "overloaded"]
    assert shed and all(r["tenant"] == "bob" for r in shed), shed
    assert all(r["retry_after_s"] > 0 for r in shed), shed


def test_serve_chaos_charges_the_slow_tenant(serve_chaos):
    _, _, responses = serve_chaos
    carol = [r for r in responses if r["tenant"] == "carol"]
    assert carol and all(r["cost_s"] >= 2.0 for r in carol), carol


def test_serve_chaos_dashboard_renders_from_persisted_metrics(serve_chaos):
    cwd = serve_chaos[0]
    prom = repro(cwd, "-w", "ws.pkl", "metrics", "--format", "prom")
    assert "repro_serve_requests_total" in "\n".join(answer(prom))
    report = repro(cwd, "-w", "ws.pkl", "report", "--out", "report.html")
    assert report.returncode == 0, report.stderr
    html = (cwd / "report.html").read_text()
    assert not re.search(r"https?://|xmlns|@import|url\(", html, re.I)


@pytest.fixture(scope="module")
def trace_smoke(tmp_path_factory):
    """An indexed range query traced from the CLI, then ``history``: the
    directory holding ``trace.jsonl`` and its Chrome export."""
    cwd = tmp_path_factory.mktemp("scenario-trace")
    for argv in (
        ["generate", "pts", "--n", "50000"],
        ["index", "pts", "idx", "--technique", "str"],
        ["--trace", "trace.jsonl", "-v", "rangequery", "idx",
         "--window", WINDOW],
        ["history"],
    ):
        proc = repro(cwd, "-w", "ws.pkl", *argv)
        assert proc.returncode == 0, proc.stderr
    return cwd


def test_trace_smoke_trace_parses_and_is_not_empty(trace_smoke):
    from repro.observe import read_jsonl

    trace = trace_smoke / "trace.jsonl"
    with trace.open() as fh:
        header = json.loads(fh.readline())
    assert header["type"] == "trace", header
    records = read_jsonl(trace)
    assert records, "trace is empty"
    kinds = {r["kind"] for r in records}
    assert {"job", "wave", "task", "operation"} <= kinds, kinds
    chrome = json.loads((trace_smoke / "trace.chrome.json").read_text())
    assert chrome["traceEvents"], "Chrome trace is empty"


#: The channel scenario's commands, run in this order in each mode.
CHANNEL_COMMANDS = (
    ["generate", "pts", "--n", "30000"],
    ["index", "pts", "idx", "--technique", "str"],
    ["generate", "other", "--n", "8000", "--shape", "rect", "--seed", "3"],
    ["index", "other", "oidx", "--technique", "grid"],
    ["rangequery", "idx", "--window", WINDOW],
    ["sjoin", "idx", "oidx"],
    ["knn", "idx", "--point", "5e5,5e5", "--k", "20"],
    ["--faults", "crash:map:0,corruptblock:idx:0:0",
     "rangecount", "idx", "--window", "0,0,6e5,6e5"],
)


@pytest.fixture(scope="module")
def channels(tmp_path_factory):
    """:data:`CHANNEL_COMMANDS` serially and with ``--workers 2``, every
    channel armed: ``(directory, {mode: normalized event log})``; the
    traces are ``eq-<mode>-<i>.jsonl``, the scrapes
    ``eq-<mode>-scrapes.jsonl``."""
    cwd = tmp_path_factory.mktemp("scenario-channels")
    logs = {}
    with pytest.MonkeyPatch.context() as patch:
        # "serial" is the backend a plain shell gets.
        patch.delenv(WORKERS_ENV_VAR, raising=False)
        for mode, workers in (("serial", []),
                              ("parallel", ["--workers", "2"])):
            for i, argv in enumerate(CHANNEL_COMMANDS, 1):
                proc = repro(
                    cwd, "-w", f"eq-{mode}.pkl", *workers,
                    "--trace", f"eq-{mode}-{i}.jsonl", "--log-level", "debug",
                    "--telemetry", f"eq-{mode}-scrapes.jsonl", "--profile",
                    "--progress", *argv,
                )
                assert proc.returncode == 0, proc.stderr
            proc = repro(cwd, "-w", f"eq-{mode}.pkl",
                         "logs", "--normalize", "--format", "json")
            assert proc.returncode == 0, proc.stderr
            logs[mode] = proc.stdout
    return cwd, logs


def test_channels_event_log_does_not_depend_on_the_backend(channels):
    _, logs = channels
    assert logs["serial"] and logs["parallel"] == logs["serial"]


def test_channels_scrape_log_does_not_depend_on_the_backend(channels):
    cwd, _ = channels
    serial, parallel = ((cwd / f"eq-{mode}-scrapes.jsonl").read_bytes()
                        for mode in ("serial", "parallel"))
    assert serial and parallel == serial


def test_channels_traces_normalize_equal(channels):
    from repro.observe.trace import normalize_events, read_jsonl

    cwd, _ = channels
    for i in range(1, len(CHANNEL_COMMANDS) + 1):
        serial, parallel = (
            normalize_events(read_jsonl(cwd / f"eq-{mode}-{i}.jsonl"))
            for mode in ("serial", "parallel")
        )
        assert serial == parallel, f"command {i}: traces differ"


@pytest.mark.parametrize("argv", [["ls"], ["info", "idx"]])
def test_a_closed_stdout_ends_the_verb_quietly(trace_smoke, argv):
    """``repro ... | head``: the reader is gone before the verb prints."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro", "-w", "ws.pkl", *argv],
        cwd=trace_smoke, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=300) == 141, err
    assert "Traceback" not in err and "BrokenPipeError" not in err, err
