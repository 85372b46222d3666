"""CLI tests for checkpointing, resume, deadlines and cancellation."""

import json
import re
import signal

import pytest

from repro.cli import EXIT_DEADLINE, EXIT_DRIVER_CRASH, EXIT_SIGINT, main
from repro.core.system import SpatialHadoop


@pytest.fixture
def ws(tmp_path):
    return str(tmp_path / "ws.pkl")


@pytest.fixture
def indexed_ws(ws, capsys):
    run(ws, "generate", "pts", "--n", "900")
    run(ws, "index", "pts", "idx", "--technique", "str")
    capsys.readouterr()
    return ws


def run(ws, *argv):
    return main(["-w", ws, *argv])


KNN = ("knn", "idx", "--point", "5e5,5e5", "--k", "7")


def stable(out):
    """CLI output without the ``[cost]`` line's simulated seconds.

    That figure replays *measured* CPU time and differs from run to run;
    the answer lines and the counters beside it (blocks read, shuffled
    records, rounds) are what a resumed run must reproduce.
    """
    return re.sub(r", simulated: [0-9.]+s", "", out)


class TestCrashAndResume:
    def test_driver_crash_exits_70_and_journals(
        self, indexed_ws, capsys, tmp_path
    ):
        ckpt = tmp_path / "run.ckpt"
        code = run(
            indexed_ws, "--faults", "crashdriver:0",
            "--checkpoint", str(ckpt), *KNN,
        )
        assert code == EXIT_DRIVER_CRASH
        err = capsys.readouterr().err
        assert "repro resume" in err
        manifest = json.loads((ckpt / "MANIFEST.json").read_text())
        assert manifest["status"] == "interrupted"
        assert "crashdriver" in manifest["reason"]

    def test_crashed_invocation_does_not_save_workspace(
        self, indexed_ws, capsys, tmp_path
    ):
        before = (tmp_path / "ws.pkl").read_bytes()
        run(
            indexed_ws, "--faults", "crashdriver:0",
            "--checkpoint", str(tmp_path / "run.ckpt"), *KNN,
        )
        capsys.readouterr()
        assert (tmp_path / "ws.pkl").read_bytes() == before

    def test_resume_completes_bit_identically_and_gcs_journal(
        self, indexed_ws, capsys, tmp_path
    ):
        assert run(indexed_ws, *KNN) == 0
        want = capsys.readouterr().out

        ckpt = tmp_path / "run.ckpt"
        assert run(
            indexed_ws, "--faults", "crashdriver:0",
            "--checkpoint", str(ckpt), *KNN,
        ) == EXIT_DRIVER_CRASH
        capsys.readouterr()

        assert main(["-w", indexed_ws, "resume", str(ckpt)]) == 0
        got = capsys.readouterr().out
        assert stable(want) in stable(got)
        # Completed jobs garbage-collect their journal.
        assert not ckpt.exists()

    def test_resume_defaults_to_workspace_sibling_journal(
        self, indexed_ws, capsys, tmp_path
    ):
        default_dir = tmp_path / "ws.pkl.ckpt"
        assert run(
            indexed_ws, "--faults", "crashdriver:0",
            "--checkpoint", str(default_dir), *KNN,
        ) == EXIT_DRIVER_CRASH
        capsys.readouterr()
        assert main(["-w", indexed_ws, "resume"]) == 0
        assert not default_dir.exists()

    def test_resume_records_recovery_in_history(
        self, indexed_ws, capsys, tmp_path
    ):
        ckpt = tmp_path / "run.ckpt"
        run(
            indexed_ws, "--faults", "crashdriver:0",
            "--checkpoint", str(ckpt), *KNN,
        )
        capsys.readouterr()
        assert main(["-w", indexed_ws, "resume", str(ckpt)]) == 0
        capsys.readouterr()
        assert run(indexed_ws, "history") == 0
        out = capsys.readouterr().out
        assert "crash recovery" in out
        assert "replayed from checkpoint" in out

    def test_resume_without_journal_errors(self, indexed_ws, capsys, tmp_path):
        assert main(
            ["-w", indexed_ws, "resume", str(tmp_path / "nope.ckpt")]
        ) == 1
        assert "error:" in capsys.readouterr().err

    def test_resume_corrupt_manifest_suggests_fsck(
        self, indexed_ws, capsys, tmp_path
    ):
        ckpt = tmp_path / "run.ckpt"
        ckpt.mkdir()
        (ckpt / "MANIFEST.json").write_text("{not json")
        assert main(["-w", indexed_ws, "resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert "fsck" in err

    def test_resume_list_shows_interrupted_runs(
        self, indexed_ws, capsys, tmp_path
    ):
        run(
            indexed_ws, "--faults", "crashdriver:0",
            "--checkpoint", str(tmp_path / "a.ckpt"), *KNN,
        )
        capsys.readouterr()
        assert main(
            ["-w", indexed_ws, "resume", "--list", "--dir", str(tmp_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "a.ckpt" in out
        assert "interrupted" in out

    def test_resume_list_empty(self, indexed_ws, capsys, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        assert main(
            ["-w", indexed_ws, "resume", "--list", "--dir", str(empty)]
        ) == 0
        assert "no checkpointed runs" in capsys.readouterr().out

    def test_clean_checkpointed_run_leaves_no_journal(
        self, indexed_ws, capsys, tmp_path
    ):
        ckpt = tmp_path / "clean.ckpt"
        assert run(indexed_ws, "--checkpoint", str(ckpt), *KNN) == 0
        capsys.readouterr()
        assert not ckpt.exists()


class TestDeadlinesAndSignals:
    def test_injected_stall_blows_deadline_exit_124(
        self, indexed_ws, capsys, tmp_path
    ):
        code = run(
            indexed_ws, "--faults", "hangdriver:0:99",
            "--deadline", "5",
            "--checkpoint", str(tmp_path / "run.ckpt"), *KNN,
        )
        assert code == EXIT_DEADLINE
        err = capsys.readouterr().err
        assert "deadline" in err.lower()
        assert "repro resume" in err

    def test_deadline_resume_finishes_the_job(
        self, indexed_ws, capsys, tmp_path
    ):
        assert run(indexed_ws, *KNN) == 0
        want = capsys.readouterr().out
        ckpt = tmp_path / "run.ckpt"
        run(
            indexed_ws, "--faults", "hangdriver:0:99",
            "--deadline", "5", "--checkpoint", str(ckpt), *KNN,
        )
        capsys.readouterr()
        # The resumed invocation replays the recorded argv — including
        # the hang fault, which already fired, and the deadline, which
        # the stall no longer threatens.
        assert main(["-w", indexed_ws, "resume", str(ckpt)]) == 0
        assert stable(want) in stable(capsys.readouterr().out)

    def test_negative_deadline_rejected(self, indexed_ws, capsys):
        assert run(indexed_ws, "--deadline", "-1", *KNN) == 1
        assert "--deadline" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(
        self, indexed_ws, capsys, tmp_path, monkeypatch
    ):
        def boom(self, *a, **k):
            raise KeyboardInterrupt

        monkeypatch.setattr(SpatialHadoop, "knn", boom)
        code = run(
            indexed_ws, "--checkpoint", str(tmp_path / "run.ckpt"), *KNN
        )
        assert code == EXIT_SIGINT
        assert "repro resume" in capsys.readouterr().err

    def test_sigterm_cancels_cooperatively(
        self, indexed_ws, capsys, tmp_path, monkeypatch
    ):
        """Raise SIGTERM mid-operation: the handler cancels the token and
        the run unwinds at the next task boundary with exit 128+15."""
        real = SpatialHadoop.knn

        def poked(self, *a, **k):
            signal.raise_signal(signal.SIGTERM)
            return real(self, *a, **k)

        monkeypatch.setattr(SpatialHadoop, "knn", poked)
        code = run(
            indexed_ws, "--checkpoint", str(tmp_path / "run.ckpt"), *KNN
        )
        assert code == 128 + signal.SIGTERM
        err = capsys.readouterr().err
        assert "caught signal" in err
        assert "repro resume" in err

    def test_signal_handlers_restored_after_run(self, indexed_ws, capsys):
        before = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        assert run(indexed_ws, *KNN) == 0
        capsys.readouterr()
        after = (
            signal.getsignal(signal.SIGINT),
            signal.getsignal(signal.SIGTERM),
        )
        assert after == before


class TestFsckCheckpointAudit:
    def _torn_journal(self, indexed_ws, tmp_path, capsys):
        ckpt = tmp_path / "ws.pkl.ckpt"
        run(
            indexed_ws, "--faults", "crashdriver:0:0.5",
            "--checkpoint", str(ckpt), *KNN,
        )
        capsys.readouterr()
        return ckpt

    def test_fsck_flags_torn_checkpoint(self, indexed_ws, capsys, tmp_path):
        ckpt = self._torn_journal(indexed_ws, tmp_path, capsys)
        assert run(
            indexed_ws, "fsck", "--checkpoint-dir", str(ckpt)
        ) == 0
        out = capsys.readouterr().out
        assert "checkpoint-corrupt" in out

    def test_fsck_auto_detects_sibling_journal(
        self, indexed_ws, capsys, tmp_path
    ):
        self._torn_journal(indexed_ws, tmp_path, capsys)
        assert run(indexed_ws, "fsck") == 0
        assert "checkpoint-corrupt" in capsys.readouterr().out

    def test_resume_repairs_torn_checkpoint(
        self, indexed_ws, capsys, tmp_path
    ):
        assert run(indexed_ws, *KNN) == 0
        want = capsys.readouterr().out
        ckpt = self._torn_journal(indexed_ws, tmp_path, capsys)
        assert main(["-w", indexed_ws, "resume", str(ckpt)]) == 0
        assert stable(want) in stable(capsys.readouterr().out)
