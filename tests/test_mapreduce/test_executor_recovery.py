"""Degraded-mode behaviour of the parallel executor.

These tests drive :class:`ParallelExecutor` directly with chunk functions
that misbehave on purpose — killing their worker, returning unpicklable
results — and assert the recovery contract: completed results are kept, a
broken pool is rebuilt at most once per wave, repeat offenders run
in-process, and teardown never blocks.
"""

import os
import signal
import subprocess
import sys
import time
from concurrent.futures import Future
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro import SpatialHadoop
from repro.core.workspace import save_workspace
from repro.datagen import generate_points
from repro.datagen.shapes import generate_rectangles
from repro.mapreduce import ParallelExecutor, SerialExecutor
from repro.mapreduce import executor as executor_module
from repro.mapreduce.executor import BLACKLIST_REBUILDS

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))


# ----------------------------------------------------------------------
# Chunk functions (module-level: they must ship to worker processes).
# Chunks are dicts: {"id": int, "flag": path | None, "log": path | None,
# "action": "ok" | "kill" | "unpicklable"}.
# ----------------------------------------------------------------------
def run_chunk(chunk):
    if chunk.get("log"):
        # Append-with-O_APPEND is atomic enough for these tiny writes.
        with open(chunk["log"], "a") as fh:
            fh.write(f"{chunk['id']}\n")
    flag = chunk.get("flag")
    armed = bool(flag) and os.path.exists(flag)
    if armed and chunk["action"] == "kill":
        os.remove(flag)  # next run of this chunk succeeds
        os._exit(1)
    if chunk["action"] == "unpicklable":
        return lambda: chunk["id"]  # cannot cross the result pipe
    return chunk["id"] * 10


def nap_chunk(seconds):
    time.sleep(seconds)
    return seconds


def executions(log_path):
    """Chunk ids logged by run_chunk, one entry per execution."""
    if not os.path.exists(log_path):
        return []
    return [int(line) for line in open(log_path).read().split()]


def make_chunks(n, tmp_path, action_for=None, log=True):
    log_path = str(tmp_path / "log.txt") if log else None
    chunks = []
    for i in range(n):
        action = (action_for or {}).get(i, "ok")
        flag = None
        if action == "kill":
            flag = str(tmp_path / f"flag-{i}")
            open(flag, "w").close()
        chunks.append(
            {"id": i, "flag": flag, "log": log_path, "action": action}
        )
    return chunks, log_path


@pytest.fixture
def executor():
    ex = ParallelExecutor(2)
    yield ex
    ex.close()


class BrokenDuringSubmission:
    """A pool whose worker dies while the wave is being handed over: it
    takes ``accept`` chunks (which then fail as broken) and refuses the
    rest, deterministically."""

    def __init__(self, accept):
        self.accept = accept

    def submit(self, fn, *args):
        if self.accept == 0:
            raise BrokenProcessPool("a worker died during submission")
        self.accept -= 1
        future = Future()
        future.set_exception(BrokenProcessPool("a worker died"))
        return future


class WorkerlessPool:
    """A pool that lost every worker without noticing: it takes the wave,
    reports no live worker process, and its futures never complete."""

    _processes: dict = {}

    def submit(self, fn, *args):
        return Future()


def break_first_pool(ex, monkeypatch, accept=0, pool=None):
    """Make ``ex``'s next pool ``pool`` (default: one that breaks during
    submission); later pools are real."""
    fake = [pool or BrokenDuringSubmission(accept)]
    real = ex._ensure_pool
    monkeypatch.setattr(
        ex, "_ensure_pool", lambda: fake.pop() if fake else real()
    )


class TestPoolRebuild:
    def test_rebuild_keeps_completed_results(self, executor, tmp_path):
        """A worker kill loses only its chunk; the rest survive."""
        chunks, log = make_chunks(6, tmp_path, {3: "kill"})
        results = executor.map_chunks(run_chunk, chunks)
        assert results == [0, 10, 20, 30, 40, 50]
        assert executor.pool_rebuilds == 1
        assert executor.fallbacks == 0
        assert not executor.blacklisted
        assert executor.last_dispatch["mode"] == "pool"
        assert executor.last_dispatch["recovered"] is True
        # The killed chunk ran twice (once per pool); no other chunk was
        # re-run from scratch after the rebuild.
        counts = executions(log)
        assert counts.count(3) == 2
        # ProcessPoolExecutor may drop sibling chunks queued on the dead
        # worker; they re-run at most once more, never the whole wave.
        assert len(counts) <= len(chunks) + executor.workers + 1

    def test_clean_wave_after_recovery(self, executor, tmp_path):
        """The rebuilt pool serves later waves without further fallout."""
        chunks, _ = make_chunks(4, tmp_path, {0: "kill"})
        executor.map_chunks(run_chunk, chunks)
        chunks2, _ = make_chunks(4, tmp_path)
        assert executor.map_chunks(run_chunk, chunks2) == [0, 10, 20, 30]
        assert executor.pool_rebuilds == 1
        dispatch = dict(executor.last_dispatch)
        # Driver-side submit timing rides along for the profiler.
        assert dispatch.pop("submit_s") >= 0.0
        assert dispatch == {"chunks": 4, "mode": "pool"}

    def test_breakage_during_submission_is_a_rebuild(
        self, executor, tmp_path, monkeypatch
    ):
        """Chunks the dead pool never took are lost like those in flight:
        the pool is rebuilt and all of them re-dispatched."""
        break_first_pool(executor, monkeypatch, accept=1)
        chunks, _ = make_chunks(4, tmp_path, log=False)
        assert executor.map_chunks(run_chunk, chunks) == [0, 10, 20, 30]
        assert executor.pool_rebuilds == 1
        assert executor.fallbacks == 0
        assert executor.last_dispatch["mode"] == "pool"
        assert executor.last_dispatch["recovered"] is True

    def test_pool_without_live_workers_is_a_rebuild(
        self, executor, tmp_path, monkeypatch
    ):
        """A result no live worker is left to deliver is a broken chunk:
        the driver stops waiting, rebuilds the pool and re-dispatches."""
        monkeypatch.setattr(executor_module, "RESULT_POLL_S", 0.01)
        break_first_pool(executor, monkeypatch, pool=WorkerlessPool())
        chunks, _ = make_chunks(4, tmp_path, log=False)
        assert executor.map_chunks(run_chunk, chunks) == [0, 10, 20, 30]
        assert executor.pool_rebuilds == 1
        assert executor.fallbacks == 0
        assert executor.last_dispatch["recovered"] is True

    def test_a_task_timeout_error_is_the_task_outcome(self):
        """Only a pending future is polled: a task that raised TimeoutError
        surfaces it at once."""
        future = Future()
        future.set_exception(TimeoutError("the task's own timeout"))
        with pytest.raises(TimeoutError, match="the task's own"):
            executor_module._result(future, WorkerlessPool())


class TestPartialPickleFallback:
    def test_unpicklable_result_reruns_only_that_chunk(
        self, executor, tmp_path
    ):
        """Mid-wave pickle failure keeps the pool and the other results."""
        chunks, log = make_chunks(6, tmp_path, {2: "unpicklable"})
        results = executor.map_chunks(run_chunk, chunks)
        assert callable(results[2])  # in-process re-run returns the lambda
        assert [r for i, r in enumerate(results) if i != 2] == [
            0, 10, 30, 40, 50,
        ]
        assert executor.fallbacks == 1
        assert executor.pool_rebuilds == 0
        assert executor.last_dispatch["recovered"] is True
        counts = executions(log)
        assert counts.count(2) == 2  # pool try + in-process re-run
        assert sorted(set(counts)) == [0, 1, 2, 3, 4, 5]
        assert len(counts) == 7  # nobody else ran twice

    def test_unshippable_wave_runs_in_process(self, executor):
        captured = []

        def closure_fn(chunk):  # closes over captured -> unpicklable
            captured.append(chunk)
            return chunk

        payload = [lambda: 1, lambda: 2]  # unpicklable chunks too
        assert executor.map_chunks(closure_fn, payload) == payload
        assert executor.fallbacks == 1
        assert executor.last_dispatch == {"chunks": 2, "mode": "in-process"}


class TestBlacklist:
    def test_repeated_breakage_blacklists_the_pool(self, tmp_path):
        ex = ParallelExecutor(2)
        try:
            ex.pool_rebuilds = BLACKLIST_REBUILDS - 1  # priors from past waves
            chunks, _ = make_chunks(4, tmp_path, {1: "kill"})
            assert ex.map_chunks(run_chunk, chunks) == [0, 10, 20, 30]
            assert ex.blacklisted
            # Later waves never touch a pool again.
            chunks2, log = make_chunks(3, tmp_path)
            assert ex.map_chunks(run_chunk, chunks2) == [0, 10, 20]
            assert ex.last_dispatch == {
                "chunks": 3,
                "mode": "in-process",
                "blacklisted": True,
            }
        finally:
            ex.close()

    def test_breakage_during_submission_counts_toward_it(
        self, tmp_path, monkeypatch
    ):
        """The kill of the test above, landing before the wave was fully
        submitted, still blacklists the pool."""
        ex = ParallelExecutor(2)
        try:
            ex.pool_rebuilds = BLACKLIST_REBUILDS - 1
            break_first_pool(ex, monkeypatch, accept=0)
            chunks, _ = make_chunks(4, tmp_path, log=False)
            assert ex.map_chunks(run_chunk, chunks) == [0, 10, 20, 30]
            assert ex.blacklisted
            assert ex.fallbacks == 0
        finally:
            ex.close()

    def test_blacklist_survives_pickling(self):
        import pickle

        ex = ParallelExecutor(2)
        ex.blacklisted = True
        ex.pool_rebuilds = 7
        clone = pickle.loads(pickle.dumps(ex))
        assert clone.blacklisted and clone.pool_rebuilds == 7


class TestTeardown:
    def test_close_without_wait_does_not_block(self, executor, tmp_path):
        chunks, _ = make_chunks(4, tmp_path, log=False)
        executor.map_chunks(run_chunk, chunks)
        start = time.monotonic()
        executor.close(wait=False)
        assert time.monotonic() - start < 2.0
        assert executor._pool is None

    def test_close_is_idempotent(self, executor):
        executor.close()
        executor.close(wait=False)
        executor.close()

    def test_interpreter_exit_is_prompt_with_live_pool(self):
        """Dropping an executor without close() must not stall exit.

        Regression: ``__del__`` used to run a waiting shutdown, which can
        join workers mid-teardown and hang the interpreter.
        """
        code = (
            "import sys; sys.path.insert(0, 'src');\n"
            "from repro.mapreduce import ParallelExecutor\n"
            "from tests.test_mapreduce.test_executor_recovery import run_chunk\n"
            "ex = ParallelExecutor(2)\n"
            "chunks = [{'id': i, 'flag': None, 'log': None, 'action': 'ok'}"
            " for i in range(4)]\n"
            "print(ex.map_chunks(run_chunk, chunks))\n"
            # No close(): the live pool is torn down by __del__ / exit.
        )
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=REPO_ROOT,
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.monotonic() - start
        assert proc.returncode == 0, proc.stderr
        assert "[0, 10, 20, 30]" in proc.stdout
        assert elapsed < 30


def run_bounded(argv, timeout_s, **kwargs):
    """``subprocess.run`` in its own session; on timeout the whole
    process group is killed, so a hung driver leaves no worker behind."""
    proc = subprocess.Popen(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True, **kwargs,
    )
    try:
        out, err = proc.communicate(timeout=timeout_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, err = proc.communicate()
        pytest.fail(f"timed out after {timeout_s} s\n{out}\n{err}")
    return proc.returncode, out, err


class TestWorkerSignals:
    def test_worker_kill_does_not_hang_cli(self, tmp_path):
        """A worker death makes the pool terminate its siblings. Workers
        forked from the CLI must not keep its cooperative SIGTERM
        handler, or they outlive the terminate and the driver hangs
        joining them after printing its answer. The CLI runs with the
        pool pinned, so the scripted kill lands on a worker."""
        sh = SpatialHadoop(job_overhead_s=0.05, workers=1)
        sh.load("pts", generate_points(25_000, "uniform", seed=0))
        sh.load("rects", generate_rectangles(12_000, "uniform", seed=0))
        pairs = len(sh.spatial_join("pts", "rects").answer)
        workspace = tmp_path / "ws.pkl"
        save_workspace(sh, workspace)
        pinned_cli = (
            "import sys\n"
            "from repro.cli import main\n"
            "from repro.mapreduce import ParallelExecutor\n"
            "from tests.conftest import pinned_run_wave\n"
            "ParallelExecutor.run_wave = pinned_run_wave\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        code, out, err = run_bounded(
            [sys.executable, "-c", pinned_cli, "-w", str(workspace),
             "--workers", "2", "--faults", "kill:map:1",
             "sjoin", "pts", "rects"],
            timeout_s=60,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert code == 0, err
        assert f"{pairs} overlapping pairs" in out
        assert "[cancel] caught signal" not in err

    def test_ctrl_c_leaves_the_pool_intact(self):
        """A terminal Ctrl-C sends SIGINT to the whole process group.
        Cancelling is the driver's job (the CLI's handler marks a stop);
        a worker killed by the signal would break the pool mid-wave and
        count a rebuild."""
        code = (
            "import os, signal, sys, threading; sys.path.insert(0, 'src')\n"
            "from repro.mapreduce import ParallelExecutor\n"
            "from tests.test_mapreduce.test_executor_recovery import nap_chunk\n"
            "caught = []\n"
            "signal.signal(signal.SIGINT, lambda signum, _: caught.append(signum))\n"
            "ex = ParallelExecutor(2)\n"
            # Both workers are up and past their start-up before the signal.
            "ex.map_chunks(nap_chunk, [0.2, 0.2])\n"
            "threading.Timer(0.5, os.killpg, (0, signal.SIGINT)).start()\n"
            "print(ex.map_chunks(nap_chunk, [2.0, 2.0]), ex.pool_rebuilds,"
            " ex.fallbacks, caught)\n"
            "ex.close()\n"
        )
        returncode, out, err = run_bounded(
            [sys.executable, "-c", code], timeout_s=60, cwd=REPO_ROOT
        )
        assert returncode == 0, err
        assert out.split() == ["[2.0,", "2.0]", "0", "0", "[2]"], out + err

    def test_process_group_sigterm_mid_job_exits_143(self, tmp_path):
        """A SIGTERM to the whole process group mid-job: the workers die
        at once, the CLI stops at the next task boundary with 128 + 15,
        and nothing of the group outlives it. The signal goes out when
        the second wave reaches the executor (pinned to the pool), so the
        pool is up."""
        workspace = tmp_path / "ws.pkl"
        code = (
            "import os, signal, sys; sys.path.insert(0, 'src')\n"
            "from repro.cli import main\n"
            "from repro.mapreduce import ParallelExecutor\n"
            "from tests.conftest import pinned_run_wave\n"
            "waves = []\n"
            "def run_wave(self, *args, **kwargs):\n"
            "    waves.append(args[2])\n"
            "    if len(waves) == 2:\n"
            "        os.killpg(0, signal.SIGTERM)\n"
            "    return pinned_run_wave(self, *args, **kwargs)\n"
            "ParallelExecutor.run_wave = run_wave\n"
            f"ws = {str(workspace)!r}\n"
            "assert main(['-w', ws, 'generate', 'pts', '--n', '20000']) == 0\n"
            "sys.exit(main(['-w', ws, '--workers', '2', 'index', 'pts',"
            " 'idx', '--technique', 'str']))\n"
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
            cwd=REPO_ROOT,
        )
        try:
            out, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            pytest.fail(f"timed out\n{out}\n{err}")
        assert proc.returncode == 128 + signal.SIGTERM, out + err
        assert "caught signal 15" in err
        deadline = time.monotonic() + 10
        while group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert group_members(proc.pid) == []

    def test_second_sigint_ends_a_long_driver_job(self, tmp_path):
        """The first SIGINT asks for a stop at the next task boundary;
        when a task in the driver runs long, a second one must end the
        CLI at once, with 128 + 2, leaving no child behind. The first
        wave is pinned to the pool so its workers are up; the second
        wave's map task naps for a minute in the driver."""
        workspace = tmp_path / "ws.pkl"
        code = (
            "import os, signal, sys, threading, time\n"
            "sys.path.insert(0, 'src')\n"
            "from repro.cli import main\n"
            "from repro.index import build\n"
            "from repro.mapreduce import ParallelExecutor\n"
            "from tests.conftest import pinned_run_wave\n"
            "partition_map = build._partition_map\n"
            "def long_partition_map(key, block, ctx):\n"
            "    time.sleep(60)\n"
            "    partition_map(key, block, ctx)\n"
            "build._partition_map = long_partition_map\n"
            "waves = []\n"
            "def run_wave(self, fn, chunks, *args, **kwargs):\n"
            "    waves.append(fn)\n"
            "    if len(waves) == 1:\n"
            "        return pinned_run_wave(self, fn, chunks, *args, **kwargs)\n"
            "    assert self._pool is not None\n"
            "    for delay in (0.5, 1.5):\n"
            "        threading.Timer(delay, os.kill,"
            " (os.getpid(), signal.SIGINT)).start()\n"
            "    return self._map_chunks_here(fn, chunks)\n"
            "ParallelExecutor.run_wave = run_wave\n"
            f"ws = {str(workspace)!r}\n"
            "assert main(['-w', ws, 'generate', 'pts', '--n', '20000']) == 0\n"
            "sys.exit(main(['-w', ws, '--workers', '2', 'index', 'pts',"
            " 'idx', '--technique', 'str']))\n"
        )
        started = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, "-c", code], stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True,
            cwd=REPO_ROOT,
        )
        try:
            out, err = proc.communicate(timeout=45)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            out, err = proc.communicate()
            pytest.fail(f"timed out\n{out}\n{err}")
        assert proc.returncode == 128 + signal.SIGINT, out + err
        assert "caught signal 2" in err and "interrupted" in err
        # Far less than the nap: the second signal did not wait for it.
        assert time.monotonic() - started < 30, err
        deadline = time.monotonic() + 10
        while group_members(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert group_members(proc.pid) == []


def group_members(pgid):
    """Live processes (not zombies) of process group ``pgid``."""
    members = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        try:
            with open(f"/proc/{pid}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == pgid:
            members.append(pid)
    return members


class TestNoOrphans:
    def test_close_leaves_no_children(self):
        """After ``runner.close()`` the driver has no child process left:
        no pool worker and no helper process."""
        code = (
            "import os, sys; sys.path.insert(0, 'src')\n"
            "from repro import SpatialHadoop\n"
            "from repro.datagen import generate_points\n"
            "from repro.geometry import Rectangle\n"
            "from repro.mapreduce import ParallelExecutor\n"
            "from tests.conftest import pinned_run_wave\n"
            "ParallelExecutor.run_wave = pinned_run_wave\n"
            "sh = SpatialHadoop(workers=2, block_capacity=500)\n"
            "sh.load('pts', generate_points(5000, 'uniform', seed=1))\n"
            "sh.index('pts', 'idx', technique='str')\n"
            "op = sh.range_query('idx', Rectangle(2e5, 2e5, 6e5, 6e5))\n"
            "ex = sh.runner.executor\n"
            "assert ex.last_dispatch['mode'] == 'pool', ex.last_dispatch\n"
            "assert op.answer and ex.fallbacks == 0\n"
            "sh.runner.close()\n"
            "own = str(os.getpid())\n"
            "children = []\n"
            "for pid in filter(str.isdigit, os.listdir('/proc')):\n"
            "    try:\n"
            "        stat = open(f'/proc/{pid}/stat').read()\n"
            "    except OSError:\n"
            "        continue\n"
            "    if stat.rpartition(')')[2].split()[1] == own:\n"
            "        children.append(pid)\n"
            "print('children', children)\n"
        )
        returncode, out, err = run_bounded(
            [sys.executable, "-c", code], timeout_s=60, cwd=REPO_ROOT
        )
        assert returncode == 0, err
        assert "children []" in out, out


class TestSerialContract:
    def test_serial_executor_reports_dispatch(self):
        ex = SerialExecutor()
        assert ex.map_chunks(lambda c: c + 1, [1, 2, 3]) == [2, 3, 4]
        assert ex.last_dispatch == {"chunks": 3, "mode": "in-process"}
        ex.close()  # no-op, must exist


def raise_type_error(chunk):
    # A genuine user bug, raised inside the worker: must surface as-is.
    return chunk["id"] + "not-a-number"


class TestSerializationClassifier:
    """Genuine user errors must not be mistaken for pickle failures.

    ``TypeError`` and ``AttributeError`` are in ``_PICKLE_ERRORS`` because
    the pickle machinery raises them for unpicklable results — but user
    map functions raise them too. Only the former may trigger the
    in-process fallback.
    """

    def test_user_type_error_propagates(self, tmp_path, executor):
        chunks, _ = make_chunks(3, tmp_path)
        with pytest.raises(TypeError, match="not-a-number|unsupported"):
            executor.map_chunks(raise_type_error, chunks)
        assert executor.fallbacks == 0

    def test_unpicklable_result_still_falls_back(self, tmp_path, executor):
        chunks, _ = make_chunks(3, tmp_path, action_for={1: "unpicklable"})
        results = executor.map_chunks(run_chunk, chunks)
        assert callable(results[1]) and results[1]() == 1
        assert executor.fallbacks == 1

    def test_classifier_unit_cases(self):
        import pickle as _pickle

        from repro.mapreduce.executor import _is_serialization_error

        assert _is_serialization_error(_pickle.PicklingError("boom"))
        assert _is_serialization_error(
            TypeError("cannot pickle '_thread.lock' object")
        )
        assert _is_serialization_error(
            AttributeError(
                "Can't get attribute 'f' on <module '__main__'>"
            )
        )
        assert not _is_serialization_error(
            TypeError("unsupported operand type(s) for +: 'int' and 'str'")
        )
        assert not _is_serialization_error(
            AttributeError("'NoneType' object has no attribute 'x'")
        )
        assert not _is_serialization_error(ValueError("pickle me not"))

    def test_chained_pickle_cause_is_detected(self):
        from repro.mapreduce.executor import _is_serialization_error

        exc = TypeError("opaque wrapper")
        exc.__cause__ = pickle_cause = Exception(
            "cannot pickle 'generator' object"
        )
        del pickle_cause
        assert _is_serialization_error(exc)
