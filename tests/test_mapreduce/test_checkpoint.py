"""Unit tests for the crash-recovery layer: framing, manifest, manager,
cancellation tokens, driver-fault parsing, and the runner's wave
journal/replay/crash machinery."""

import json
import os
import pickle
import signal
import zlib

import numpy as np
import pytest

from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.core.workspace import write_framed
from repro.geometry import Point, Rectangle
from repro.mapreduce import checkpoint
from repro.mapreduce.checkpoint import (
    LOG_NAME,
    MAGIC,
    CancellationToken,
    CheckpointCorruptError,
    CheckpointManager,
    CheckpointNotFoundError,
    DeadlineExceeded,
    DriverCrashed,
    RunCancelled,
    check_active,
    default_checkpoint_dir,
    fsck_checkpoints,
    list_runs,
    read_checkpoint_file,
    scan_log,
    set_active_token,
    write_checkpoint_file,
)
from repro.mapreduce.faults import DriverFault, FaultPlan
from repro.mapreduce.job import Job


# ----------------------------------------------------------------------
# Wave-log framing
# ----------------------------------------------------------------------
def append_frame(path, index, fingerprint, payload):
    """Append one frame to the wave log at ``path``; returns its length."""
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        return write_checkpoint_file(fd, index, fingerprint, payload)
    finally:
        os.close(fd)


def frame_bytes(directory, index):
    """The bytes of wave ``index``'s last frame in a run's wave log."""
    log = directory / LOG_NAME
    offset, length = [(o, n) for o, n, i, _ in scan_log(log).frames
                      if i == index][-1]
    return log.read_bytes()[offset:offset + length]


class TestFraming:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / LOG_NAME
        payload = [1, (2, "x"), None]
        first = append_frame(path, 0, "0|map|3", payload)
        append_frame(path, 1, "1|reduce|1", "y")
        assert path.read_bytes().startswith(MAGIC)
        assert read_checkpoint_file(path) == {
            "index": 0, "fingerprint": "0|map|3", "payload": payload}
        assert read_checkpoint_file(path, first)["payload"] == "y"

    def test_arrays_roundtrip_writable(self, tmp_path):
        path = tmp_path / LOG_NAME
        arrays = [
            np.arange(7, dtype=np.int64),
            np.linspace(0.0, 1.0, 12).reshape(3, 4),
            np.array([True, False]),
            np.arange(6, dtype=">u2").reshape(2, 3).T,  # not C-contiguous
            np.array([1 + 2j]),
            np.array(["a", None], dtype=object),
            np.array(2.5),  # zero-dimensional
        ]
        append_frame(path, 0, "fp", [(i, (0, a)) for i, a in enumerate(arrays)])
        back = read_checkpoint_file(path)["payload"]
        for (_, (_, got)), want in zip(back, arrays):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tolist() == want.tolist()
            assert got.flags.writeable

    def test_truncation_is_typed(self, tmp_path):
        path = tmp_path / LOG_NAME
        append_frame(path, 0, "fp", list(range(100)))
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(CheckpointCorruptError, match="truncated"):
            read_checkpoint_file(path)

    def test_bitflip_is_typed(self, tmp_path):
        path = tmp_path / LOG_NAME
        append_frame(path, 0, "fp", list(range(100)))
        raw = bytearray(path.read_bytes())
        raw[-5] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointCorruptError, match="checksum"):
            read_checkpoint_file(path)

    def test_wrong_magic_is_typed(self, tmp_path):
        path = tmp_path / LOG_NAME
        path.write_bytes(b"not a checkpoint at all")
        with pytest.raises(CheckpointCorruptError, match="magic"):
            read_checkpoint_file(path)

    def test_missing_file_is_typed(self, tmp_path):
        with pytest.raises(CheckpointCorruptError):
            read_checkpoint_file(tmp_path / "absent.ckpt")

    def test_default_dir_sits_next_to_workspace(self, tmp_path):
        ws = tmp_path / "ws.pkl"
        assert default_checkpoint_dir(ws) == tmp_path / "ws.pkl.ckpt"


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class TestCheckpointManager:
    def test_create_commit_load_replay(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(
            directory, argv=["knn", "pts"], workspace="ws.pkl"
        )
        assert manager.status == "running"
        assert manager.commit(0, "0|map|2", ("datas", "attempts", {}))
        assert manager.commit(1, "1|reduce|1", ("d2", "a2", {}))
        manager.interrupt("crashdriver:1")

        resumed = CheckpointManager.load(directory)
        assert resumed.status == "interrupted"
        assert resumed.argv == ["knn", "pts"]
        assert resumed.waves_available == 2
        assert resumed.replay(0, "0|map|2") == ("datas", "attempts", {})
        assert resumed.replay(2, "2|map|9") is None  # never journaled
        assert resumed.waves_replayed == 1

    def test_stale_fingerprint_raises(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "0|map|2", "x")
        resumed = CheckpointManager.load(directory)
        with pytest.raises(CheckpointCorruptError, match="stale"):
            resumed.replay(0, "0|map|99")

    def test_torn_wave_is_a_cache_miss(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "0|map|2", "x")
        manager.tear_wave_file(0, 0.4)
        resumed = CheckpointManager.load(directory)
        assert resumed.replay(0, "0|map|2") is None
        assert len(resumed.corrupt_skipped) == 1

    def test_unpicklable_commit_is_skipped_not_fatal(self, tmp_path):
        manager = CheckpointManager.create(tmp_path / "run.ckpt")
        assert manager.commit(0, "fp", lambda: None) is False
        assert manager.waves_committed == 0

    def test_mark_fired_persists_before_effect(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.mark_fired((3, 0))
        assert CheckpointManager.load(directory).fired == {(3, 0)}

    def test_finish_garbage_collects(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "fp", "x")
        manager.finish()
        assert not directory.exists()
        with pytest.raises(CheckpointNotFoundError):
            CheckpointManager.load(directory)

    def test_corrupt_manifest_is_typed(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        CheckpointManager.create(directory)
        (directory / "MANIFEST.json").write_text("{not json")
        with pytest.raises(CheckpointCorruptError):
            CheckpointManager.load(directory)

    def test_manifest_wrong_shape_is_typed(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        CheckpointManager.create(directory)
        (directory / "MANIFEST.json").write_text(json.dumps([1, 2, 3]))
        with pytest.raises(CheckpointCorruptError):
            CheckpointManager.load(directory)


class TestHygiene:
    def test_list_runs(self, tmp_path):
        a = CheckpointManager.create(
            tmp_path / "a.ckpt", argv=["knn", "pts"]
        )
        a.commit(0, "fp", "x")
        a.interrupt("crashdriver:0")
        CheckpointManager.create(tmp_path / "b.ckpt", argv=["hull", "pts"])
        (tmp_path / "c.ckpt").mkdir()
        (tmp_path / "c.ckpt" / "MANIFEST.json").write_text("{rotten")
        runs = {run["directory"]: run for run in list_runs(tmp_path)}
        assert len(runs) == 3
        assert runs[str(tmp_path / "a.ckpt")]["status"] == "interrupted"
        assert runs[str(tmp_path / "a.ckpt")]["waves"] == 1
        assert runs[str(tmp_path / "b.ckpt")]["status"] == "running"
        assert runs[str(tmp_path / "c.ckpt")]["status"] == "corrupt"

    def test_fsck_checkpoints_reports_and_repairs(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "fp0", "x")
        manager.commit(1, "fp1", "y")
        manager.tear_wave_file(1, 0.3)
        issues = fsck_checkpoints(directory)
        assert [i["code"] for i in issues] == ["checkpoint-corrupt"]
        assert not issues[0]["repaired"]
        assert "truncated" in issues[0]["message"]
        repaired = fsck_checkpoints(directory, repair=True)
        assert repaired[0]["repaired"]
        # Wave 1's torn frame is cut off; wave 0's stays.
        assert [i for _, _, i, _ in scan_log(directory / LOG_NAME).frames] \
            == [0]
        assert fsck_checkpoints(directory) == []

    def test_fsck_drops_a_crc_bad_frame_and_keeps_the_rest(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        for index in range(3):
            manager.commit(index, f"fp{index}", list(range(index, 50)))
        manager.interrupt("test")
        log = directory / LOG_NAME
        offset, length, _, _ = scan_log(log).frames[1]
        raw = bytearray(log.read_bytes())
        raw[offset + length - 1] ^= 0xFF
        log.write_bytes(bytes(raw))
        (issue,) = fsck_checkpoints(directory)
        assert "checksum" in issue["message"] and not issue["repaired"]
        (issue,) = fsck_checkpoints(directory, repair=True)
        assert issue["repaired"]
        scan = scan_log(log)
        assert [i for _, _, i, _ in scan.frames] == [0, 2]
        assert scan.bad == [] and scan.torn is None
        assert sorted(os.listdir(directory)) == ["MANIFEST.json", LOG_NAME]
        assert CheckpointManager.load(directory).replay(2, "fp2") \
            == list(range(2, 50))


# ----------------------------------------------------------------------
# Cancellation tokens
# ----------------------------------------------------------------------
class TestCancellationToken:
    def test_cancel_raises_at_check(self):
        token = CancellationToken()
        token.check()  # not cancelled: no-op
        token.cancel("signal 15", signum=signal.SIGTERM)
        assert token.signum == signal.SIGTERM
        with pytest.raises(RunCancelled, match="signal 15"):
            token.check()

    def test_simulated_hang_trips_deadline_without_sleeping(self):
        token = CancellationToken(deadline_s=5.0)
        token.check()
        token.add_hang(30.0)
        with pytest.raises(DeadlineExceeded, match="injected driver stall"):
            token.check()

    def test_active_token_polls_and_clears(self):
        token = CancellationToken()
        token.cancel("stop")
        set_active_token(token)
        try:
            with pytest.raises(RunCancelled):
                check_active()
        finally:
            set_active_token(None)
        check_active()  # cleared: no-op again


# ----------------------------------------------------------------------
# Fault-plan grammar
# ----------------------------------------------------------------------
class TestDriverFaultParsing:
    def test_crashdriver_with_wave(self):
        plan = FaultPlan.parse("crashdriver:2")
        assert plan.driver == (DriverFault("crashdriver", wave=2),)
        assert plan.driver_at(2) == [(0, plan.driver[0])]
        assert plan.driver_at(1) == []

    def test_crashdriver_wildcard_and_tear_fraction(self):
        plan = FaultPlan.parse("crashdriver:*:0.5")
        (pair,) = plan.driver_at(7)
        assert pair[1].arg == 0.5

    def test_hangdriver_seconds(self):
        plan = FaultPlan.parse("hangdriver:1:30")
        assert plan.driver[0].kind == "hangdriver"
        assert plan.driver[0].arg == 30.0

    def test_describe_roundtrips(self):
        spec = "crash:map:0,crashdriver:2,hangdriver:*:3.5"
        assert FaultPlan.parse(spec).describe() == spec

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("crashdriver:1:2.0")  # tear fraction > 1
        with pytest.raises(ValueError):
            FaultPlan.parse("hangdriver:1:-3")  # negative stall
        with pytest.raises(ValueError):
            FaultPlan.parse("crashdriver:1:0.5:9")  # too many fields

    def test_mixed_plan_keeps_task_faults(self):
        plan = FaultPlan.parse("kill:map:1,crashdriver:0")
        assert len(plan.specs) == 1
        assert len(plan.driver) == 1


# ----------------------------------------------------------------------
# Runner integration: journal, replay, crash, resume
# ----------------------------------------------------------------------
def small_workspace(**kwargs):
    sh = SpatialHadoop(
        num_nodes=2, block_capacity=200, job_overhead_s=0.01, **kwargs
    )
    sh.load("pts", generate_points(800, "uniform", seed=3))
    sh.index("pts", "pts_idx", technique="str")
    return sh


WINDOW = Rectangle(1e5, 1e5, 8e5, 8e5)


class TestRunnerCheckpointing:
    def test_fault_free_run_commits_then_gc(self, tmp_path):
        sh = small_workspace()
        manager = sh.enable_checkpoints(tmp_path / "run.ckpt")
        want = sh.range_query("pts_idx", WINDOW)
        assert manager.waves_committed >= 1
        snap = sh.metrics.snapshot()["counters"]
        assert snap.get("CHECKPOINTS_WRITTEN", 0) == manager.waves_committed
        manager.finish()
        assert not (tmp_path / "run.ckpt").exists()
        # And the journaled run's answer matches an unjournaled one.
        plain = small_workspace().range_query("pts_idx", WINDOW)
        assert want.answer == plain.answer

    def test_crashdriver_fires_once_and_resume_replays(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        clean = small_workspace().range_query("pts_idx", WINDOW)

        # Faults are armed after the build: like the CLI, where the plan
        # is per-invocation and the workspace was built by earlier ones.
        crashed = small_workspace()
        crashed.runner.set_faults("crashdriver:0")
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            crashed.range_query("pts_idx", WINDOW)
        assert CheckpointManager.load(directory).status == "interrupted"

        resumed = small_workspace()
        resumed.runner.set_faults("crashdriver:0")
        manager = resumed.resume(directory)
        got = resumed.range_query("pts_idx", WINDOW)
        assert got.answer == clean.answer
        assert got.counters.as_dict() == clean.counters.as_dict()
        assert manager.waves_replayed >= 1
        assert resumed.metrics.snapshot()["counters"].get("RESUMES") == 1

    def test_deadline_stops_at_boundary_and_is_resumable(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        clean = small_workspace().range_query("pts_idx", WINDOW)

        sh = small_workspace()
        sh.runner.set_faults("hangdriver:0:99")
        manager = sh.enable_checkpoints(directory)
        sh.set_deadline(5.0)
        with pytest.raises(DeadlineExceeded):
            sh.range_query("pts_idx", WINDOW)
        manager.interrupt("deadline")
        # The hang charged simulated seconds, never wall time, and the
        # wave that completed before the stall is journaled.
        assert manager.waves_committed >= 1

        resumed = small_workspace()
        resumed.runner.set_faults("hangdriver:0:99")
        resumed.resume(directory)
        got = resumed.range_query("pts_idx", WINDOW)
        assert got.answer == clean.answer

    def test_cancel_mid_run_raises_at_task_boundary(self):
        sh = small_workspace()
        token = sh.set_deadline(None) or CancellationToken()
        sh.runner.set_cancellation(token)
        token.cancel("user asked")
        with pytest.raises(RunCancelled):
            sh.range_query("pts_idx", WINDOW)
        sh.runner.set_cancellation(None)
        assert sh.range_query("pts_idx", WINDOW).answer  # runs again fine

    def test_runner_pickles_without_checkpoint_state(self, tmp_path):
        sh = small_workspace()
        sh.enable_checkpoints(tmp_path / "run.ckpt")
        sh.set_deadline(10.0)
        clone = pickle.loads(pickle.dumps(sh))
        assert clone.runner.checkpoint is None
        assert clone.runner.cancellation is None
        assert clone.range_query("pts_idx", WINDOW).answer


class TestExecutorShutdownGuards:
    def test_parallel_close_is_idempotent_and_silent(self):
        from repro.mapreduce.executor import ParallelExecutor

        ex = ParallelExecutor(workers=2)
        assert ex.map_chunks(len, [[1, 2], [3]]) == [2, 1]
        ex.close()
        ex.close()  # double close from the deadline path: no-op
        ex.close(wait=False)  # and from __del__: still no-op

        class _BrokenPool:
            def shutdown(self, *a, **k):
                raise RuntimeError("mid-teardown")

        ex._pool = _BrokenPool()
        ex.close()  # never raises, even with a broken pool
        assert ex._pool is None

    @pytest.mark.usefixtures("pool_pinned")
    def test_keyboard_interrupt_mid_wave_leaves_pool_closable(
        self, monkeypatch
    ):
        from repro.mapreduce.executor import ParallelExecutor

        sh = small_workspace(workers=2)
        seen = {}

        def boom(self, fn, chunks):
            # A Ctrl-C while the wave is on the pool.
            seen["pool"] = self._ensure_pool()
            raise KeyboardInterrupt

        monkeypatch.setattr(ParallelExecutor, "_map_chunks_pooled", boom)
        try:
            with pytest.raises(KeyboardInterrupt):
                sh.range_query("pts_idx", WINDOW)
        finally:
            sh.runner.close()
        assert seen["pool"] is not None
        assert sh.runner.executor._pool is None


def _write_every_record(_key, records, ctx):
    for record in records:
        ctx.write_output(record)


def _as_v1_layout(payload):
    """A wave payload as the v1 journal stored it: 8-tuples per task."""
    results, attempts, summary = payload
    tuples = [
        (f"map-{i}", r.records_in, r.counters, r.emitted, r.output,
         r.seconds, r.events, r.phases)
        for i, r in enumerate(results)
    ]
    return (tuples, attempts, summary)


class TestJournalFormat:
    def test_task_results_journal_as_packed_columns(self, tmp_path):
        sh = SpatialHadoop(num_nodes=2, block_capacity=500,
                           job_overhead_s=0.01)
        points = [Point(float(i), float(i % 7)) for i in range(200)]
        sh.load("pts", points)
        directory = tmp_path / "run.ckpt"
        sh.enable_checkpoints(directory)
        sh.runner.run(Job(input_file="pts", map_fn=_write_every_record,
                          name="copy"))
        raw = frame_bytes(directory, 0)
        # The output records crossed the journal as float columns, not
        # as 200 pickled Point objects.
        assert b"materialize" in raw
        assert b"Point" not in raw
        results, _, _ = read_checkpoint_file(directory / LOG_NAME)["payload"]
        assert results[0].output == points

    def test_v1_wave_file_is_a_cache_miss(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        clean = small_workspace().range_query("pts_idx", WINDOW)
        crashed = small_workspace()
        crashed.runner.set_faults("crashdriver:0")
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            crashed.range_query("pts_idx", WINDOW)

        # Rewrite wave 0's frame the way the v1 release framed a wave.
        path = directory / LOG_NAME
        assert len(scan_log(path).frames) == 1
        record = read_checkpoint_file(path)
        body = pickle.dumps({"fingerprint": record["fingerprint"],
                             "payload": _as_v1_layout(record["payload"])})
        path.write_bytes(MAGIC + checkpoint._HEADER.pack(
            1, zlib.crc32(body) & 0xFFFFFFFF, len(body)) + body)

        # Attached without resume()'s fsck pass, which would drop it.
        resumed = small_workspace()
        resumed.runner.set_faults("crashdriver:0")
        manager = CheckpointManager.load(directory)
        resumed.runner.set_checkpoint(manager)
        got = resumed.range_query("pts_idx", WINDOW)
        assert got.answer == clean.answer
        assert got.counters.as_dict() == clean.counters.as_dict()
        assert [index for index, _ in manager.corrupt_skipped] == [0]
        assert "v1" in manager.corrupt_skipped[0][1]


# ----------------------------------------------------------------------
# One append-only wave log per run
# ----------------------------------------------------------------------
def batch(sh):
    """Seven waves: a range query, a kNN, a skyline and a convex hull."""
    return [
        sh.range_query("pts_idx", WINDOW),
        sh.knn("pts_idx", Point(5e5, 5e5), 7),
        sh.skyline("pts_idx"),
        sh.convex_hull("pts_idx"),
    ]


def outcome(results):
    return [(repr(r.answer), r.counters.as_dict()) for r in results]


def open_fds():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.fixture(scope="module")
def clean_batch():
    return outcome(batch(small_workspace()))


class TestWaveLog:
    def test_fault_free_run_writes_one_log(self, tmp_path):
        sh = small_workspace()
        directory = tmp_path / "run.ckpt"
        manager = sh.enable_checkpoints(directory)
        batch(sh)
        assert manager.waves_committed == 7
        assert sorted(os.listdir(directory)) == ["MANIFEST.json", LOG_NAME]
        scan = scan_log(directory / LOG_NAME)
        assert [index for _, _, index, _ in scan.frames] == list(range(7))
        assert scan.bad == [] and scan.torn is None
        assert scan.end == (directory / LOG_NAME).stat().st_size
        sh.disable_checkpoints()

    def test_crc_flip_reexecutes_only_that_wave(self, tmp_path, clean_batch):
        directory = tmp_path / "run.ckpt"
        crashed = small_workspace()
        crashed.runner.set_faults("crashdriver:4")
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            batch(crashed)
        log = directory / LOG_NAME
        offset, length, index, _ = scan_log(log).frames[2]
        assert index == 2
        raw = bytearray(log.read_bytes())
        raw[offset + length - 3] ^= 0xFF
        log.write_bytes(bytes(raw))

        scan = scan_log(log)
        assert [i for _, _, i, _ in scan.frames] == [0, 1, 3, 4]
        assert len(scan.bad) == 1 and "checksum" in scan.bad[0][2]
        # Attached without resume()'s fsck pass, which would drop it.
        resumed = small_workspace()
        resumed.runner.set_faults("crashdriver:4")
        manager = CheckpointManager.load(directory)
        resumed.runner.set_checkpoint(manager)
        assert outcome(batch(resumed)) == clean_batch
        assert [i for i, _ in manager.corrupt_skipped] == [2]
        assert manager.waves_replayed == 4  # waves 0, 1, 3 and 4
        assert manager.waves_committed == 3  # wave 2, then waves 5 and 6
        resumed.disable_checkpoints()

    def test_torn_tail_is_repaired_and_appended_to(
        self, tmp_path, clean_batch
    ):
        directory = tmp_path / "run.ckpt"
        plan = "crashdriver:1:0.5,crashdriver:4:0.5"
        crashed = small_workspace()
        crashed.runner.set_faults(plan)
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            batch(crashed)
        (issue,) = fsck_checkpoints(directory)
        assert issue["code"] == "checkpoint-corrupt"
        assert "truncated" in issue["message"]

        # The first resume cuts the torn tail, re-executes wave 1 and
        # appends until the second scripted crash tears wave 4.
        again = small_workspace()
        again.runner.set_faults(plan)
        first = again.resume(directory)
        with pytest.raises(DriverCrashed):
            batch(again)
        assert first.waves_replayed == 1
        scan = scan_log(directory / LOG_NAME)
        assert [i for _, _, i, _ in scan.frames] == [0, 1, 2, 3]
        assert scan.bad == [] and "truncated" in scan.torn

        resumed = small_workspace()
        resumed.runner.set_faults(plan)
        second = resumed.resume(directory)
        assert outcome(batch(resumed)) == clean_batch
        assert second.waves_replayed == 4
        assert second.waves_committed == 3
        second.finish()

    def test_recommit_supersedes(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "0|map|2", "old")
        manager.commit(1, "1|map|2", "y")
        manager.commit(0, "0|map|2", "new")
        manager.interrupt("test")
        assert len(scan_log(directory / LOG_NAME).frames) == 3
        resumed = CheckpointManager.load(directory)
        assert resumed.waves_available == 2
        assert resumed.replay(0, "0|map|2") == "new"

    def test_append_cuts_a_torn_tail_first(self, tmp_path):
        directory = tmp_path / "run.ckpt"
        manager = CheckpointManager.create(directory)
        manager.commit(0, "0|map|2", "x")
        manager.commit(1, "1|map|2", "y")
        manager.tear_wave_file(1, 0.5)
        manager.interrupt("torn")
        # Attached without fsck: the first append must not land behind
        # the torn bytes, where no scan would find it.
        resumed = CheckpointManager.load(directory)
        assert resumed.replay(1, "1|map|2") is None
        assert resumed.commit(1, "1|map|2", "y")
        resumed.close()
        scan = scan_log(directory / LOG_NAME)
        assert [i for _, _, i, _ in scan.frames] == [0, 1]
        assert scan.torn is None
        assert CheckpointManager.load(directory).replay(1, "1|map|2") == "y"

    @pytest.mark.parametrize("stop", ["finish", "interrupt", "disable"])
    def test_no_descriptor_outlives_the_run(self, tmp_path, stop):
        sh = small_workspace()
        before = open_fds()
        manager = sh.enable_checkpoints(tmp_path / "run.ckpt")
        sh.range_query("pts_idx", WINDOW)
        assert len(open_fds()) == len(before) + 1  # the log, held open
        if stop == "finish":
            manager.finish()
        elif stop == "interrupt":
            manager.interrupt("test")
        else:
            sh.disable_checkpoints()
        assert open_fds() == before

    def test_v3_wave_files_are_ignored(self, tmp_path, clean_batch):
        directory = tmp_path / "run.ckpt"
        crashed = small_workspace()
        crashed.runner.set_faults("crashdriver:2")
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            batch(crashed)
        # The previous release's layout: one framed file per wave.
        record = read_checkpoint_file(directory / LOG_NAME)
        (directory / LOG_NAME).unlink()
        write_framed(directory / "wave-00000.ckpt", MAGIC, 3,
                     pickle.dumps({"fingerprint": record["fingerprint"],
                                   "payload": record["payload"]}))
        assert fsck_checkpoints(directory) == []
        assert CheckpointManager.load(directory).waves_available == 0

        resumed = small_workspace()
        resumed.runner.set_faults("crashdriver:2")
        manager = resumed.resume(directory)
        assert outcome(batch(resumed)) == clean_batch
        assert manager.waves_replayed == 0
        assert manager.corrupt_skipped == []
        assert (directory / "wave-00000.ckpt").exists()
        manager.finish()

    def test_index_build_resumes_at_every_wave(self, tmp_path):
        """The partition job journals row-number arrays in its emitted
        pairs; a build resumed after any wave seals the same blocks."""

        def base():
            sh = SpatialHadoop(num_nodes=2, block_capacity=200,
                               job_overhead_s=0.01)
            sh.load("pts", generate_points(800, "uniform", seed=3))
            return sh

        def digest(sh):
            return [(b.records, b.checksum)
                    for b in sh.fs.get("idx").blocks]

        clean = base()
        manager = clean.enable_checkpoints(tmp_path / "probe.ckpt")
        clean.index("pts", "idx", technique="str")
        waves = manager.waves_committed
        manager.finish()
        assert waves >= 3
        for wave in range(waves):
            directory = tmp_path / f"crash-{wave}.ckpt"
            crashed = base()
            crashed.runner.set_faults(f"crashdriver:{wave}")
            crashed.enable_checkpoints(directory)
            with pytest.raises(DriverCrashed):
                crashed.index("pts", "idx", technique="str")
            resumed = base()
            resumed.runner.set_faults(f"crashdriver:{wave}")
            manager = resumed.resume(directory)
            resumed.index("pts", "idx", technique="str")
            assert manager.waves_replayed == wave + 1
            assert digest(resumed) == digest(clean)
            manager.finish()
