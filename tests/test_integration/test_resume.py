"""Crash/resume suite: killing the driver at any wave boundary is free.

The acceptance bar for the checkpoint layer: for every operation, crash
the driver (``crashdriver:<wave>``) after *each* wave it executes,
resume from the journal, and require the answer, counters and round
count to be bit-identical to an uninterrupted run — serial and through
real worker processes, alone and combined with the task/storage chaos
the earlier suites established.

Workspaces are cloned by pickle round-trip (exactly what the CLI's
save/load does), so a "resume" here mirrors the real flow: the crashed
invocation never saved, and the re-run starts from the original state
with the same fault plan.
"""

import pickle

import pytest

from repro.mapreduce.checkpoint import DriverCrashed
from repro.observe.trace import normalize_events

from tests.test_integration.test_chaos import (
    CHAOS,
    OPERATIONS,
    QPOINT,
    STORAGE_CHAOS,
    build_workspace,
    normalize,
)


@pytest.fixture(scope="module")
def base_blob():
    sh = build_workspace()
    sh.runner.close()
    return pickle.dumps(sh)


def clone(blob, faults=None, workers=None):
    sh = pickle.loads(blob)
    if workers is not None:
        sh.runner.set_workers(workers)
    sh.runner.set_faults(faults)
    return sh


def probe_waves(blob, name, directory):
    """How many waves ``name`` executes, via a throwaway journaled run."""
    sh = clone(blob)
    manager = sh.enable_checkpoints(directory)
    OPERATIONS[name](sh)
    waves = manager.waves_committed
    manager.finish()
    return waves


class TestCrashAtEveryWaveBoundary:
    """Serial: every operation, every wave boundary, bit-identical."""

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_operation_resumes_bit_identical(self, base_blob, tmp_path, name):
        clean = OPERATIONS[name](clone(base_blob))
        waves = probe_waves(base_blob, name, tmp_path / "probe.ckpt")
        assert waves >= 1
        for wave in range(waves):
            directory = tmp_path / f"crash-{wave}.ckpt"
            spec = f"crashdriver:{wave}"

            crashed = clone(base_blob, faults=spec)
            crashed.enable_checkpoints(directory)
            with pytest.raises(DriverCrashed):
                OPERATIONS[name](crashed)

            resumed = clone(base_blob, faults=spec)
            manager = resumed.resume(directory)
            got = OPERATIONS[name](resumed)

            assert normalize(name, got.answer) == normalize(
                name, clean.answer
            ), f"answer diverged resuming after wave {wave}"
            assert got.counters.as_dict() == clean.counters.as_dict(), (
                f"counters diverged resuming after wave {wave}"
            )
            assert got.rounds == clean.rounds
            # Everything up to and including the crashed-at wave came
            # from the journal, nothing was re-executed twice.
            assert manager.waves_replayed == wave + 1
            assert manager.waves_committed == waves - (wave + 1)


def run_traced(sh, name):
    tracer = sh.enable_tracing()
    result = OPERATIONS[name](sh)
    records = normalize_events(tracer.records())
    sh.disable_tracing()
    return result, records


@pytest.mark.usefixtures("pool_pinned")
class TestResumeTraceEquivalence:
    """Kill kNN after round 1 and closest-pair after its first wave;
    the resumed invocation's normalized trace must equal a clean run's,
    serial and through real worker processes."""

    @pytest.mark.parametrize("name", ("knn", "closest_pair"))
    @pytest.mark.parametrize("workers", (None, 2))
    def test_resumed_trace_matches_clean(
        self, base_blob, tmp_path, name, workers
    ):
        clean_sh = clone(base_blob, workers=workers)
        want, want_trace = run_traced(clean_sh, name)
        clean_sh.runner.close()

        directory = tmp_path / f"{name}-{workers}.ckpt"
        crashed = clone(base_blob, faults="crashdriver:0", workers=workers)
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            OPERATIONS[name](crashed)
        crashed.runner.close()

        resumed = clone(base_blob, faults="crashdriver:0", workers=workers)
        resumed.resume(directory)
        got, got_trace = run_traced(resumed, name)
        resumed.runner.close()

        assert normalize(name, got.answer) == normalize(name, want.answer)
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got_trace == want_trace

    def test_serial_and_parallel_resumes_agree(self, base_blob, tmp_path):
        """The normalized trace contract holds across backends too:
        a serial resume and a --workers 2 resume are indistinguishable."""
        directory = tmp_path / "serial.ckpt"
        crashed = clone(base_blob, faults="crashdriver:0")
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            OPERATIONS["knn"](crashed)
        serial = clone(base_blob, faults="crashdriver:0")
        serial.resume(directory)
        _, serial_trace = run_traced(serial, "knn")

        directory2 = tmp_path / "parallel.ckpt"
        crashed2 = clone(base_blob, faults="crashdriver:0", workers=2)
        crashed2.enable_checkpoints(directory2)
        with pytest.raises(DriverCrashed):
            OPERATIONS["knn"](crashed2)
        crashed2.runner.close()
        parallel = clone(base_blob, faults="crashdriver:0", workers=2)
        parallel.resume(directory2)
        _, parallel_trace = run_traced(parallel, "knn")
        parallel.runner.close()

        assert serial_trace == parallel_trace


def row_sets(result):
    """Every round's ``(block, rows, dsq, distances)`` as plain lists."""
    return [
        [(b, rows.tolist(), dsq.tolist(), distances)
         for b, rows, dsq, distances in job.output]
        for job in result.jobs
    ]


@pytest.mark.usefixtures("pool_pinned")
class TestKnnBoundedRoundResumes:
    """A crash between kNN's round 1 and its bounded round 2: the resumed
    driver replays round 1 from the journal, derives the same bound from
    it, and round 2 reads the same rows as an uninterrupted run."""

    @pytest.mark.parametrize("workers", (None, 2))
    def test_round_two_resumes_bit_identical(
        self, base_blob, tmp_path, workers
    ):
        def run(sh):
            return sh.knn("pts_idx", QPOINT, 150)

        clean_sh = clone(base_blob, workers=workers)
        clean = run(clean_sh)
        clean_sh.runner.close()
        assert clean.rounds == 2
        bound = sorted(
            d for found in clean.jobs[0].output for d in found[2].tolist()
        )[149]
        assert all(
            d <= bound for found in clean.jobs[1].output
            for d in found[2].tolist()
        )

        directory = tmp_path / "knn.ckpt"
        crashed = clone(base_blob, faults="crashdriver:0", workers=workers)
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            run(crashed)
        crashed.runner.close()

        resumed = clone(base_blob, faults="crashdriver:0", workers=workers)
        manager = resumed.resume(directory)
        got = run(resumed)
        resumed.runner.close()
        assert manager.waves_replayed == 1
        assert manager.waves_committed == 1
        assert got.answer == clean.answer
        assert got.counters.as_dict() == clean.counters.as_dict()
        assert (got.rounds, got.blocks_read) == (
            clean.rounds, clean.blocks_read
        )
        assert row_sets(got) == row_sets(clean)


def index_digest(sh, name):
    """An index's global index (cell ids, MBRs, counts) and block CRCs."""
    entry = sh.fs.get(name)
    cells = [
        (c.cell_id, c.mbr, c.content_mbr, c.num_records)
        for c in entry.metadata["global_index"].cells
    ]
    return cells, [block.checksum for block in entry.blocks]


@pytest.mark.usefixtures("pool_pinned")
class TestIndexBuildResumes:
    """An index build crashed at every wave boundary: the resumed build
    replays the sample job's centre arrays (and the partition job's row
    arrays) from the journal and writes the index a clean build writes."""

    @pytest.mark.parametrize("source, technique", (
        ("pts", "str"), ("rects_l", "kdtree"), ("polys", "quadtree"),
    ))
    @pytest.mark.parametrize("workers", (None, 2))
    def test_build_resumes_bit_identical(
        self, base_blob, tmp_path, source, technique, workers
    ):
        def build(sh):
            return sh.index(
                source, "rebuilt", technique=technique, block_capacity=40
            )

        clean_sh = clone(base_blob, workers=workers)
        build(clean_sh)
        clean_sh.runner.close()
        want = index_digest(clean_sh, "rebuilt")

        probe = clone(base_blob, workers=workers)
        manager = probe.enable_checkpoints(tmp_path / "probe.ckpt")
        build(probe)
        waves = manager.waves_committed
        manager.finish()
        probe.runner.close()
        assert waves >= 3  # sample map, partition map, partition reduce

        for wave in range(waves):
            directory = tmp_path / f"crash-{wave}.ckpt"
            spec = f"crashdriver:{wave}"
            crashed = clone(base_blob, faults=spec, workers=workers)
            crashed.enable_checkpoints(directory)
            with pytest.raises(DriverCrashed):
                build(crashed)
            crashed.runner.close()

            resumed = clone(base_blob, faults=spec, workers=workers)
            manager = resumed.resume(directory)
            build(resumed)
            resumed.runner.close()
            assert index_digest(resumed, "rebuilt") == want, (
                f"index diverged resuming after wave {wave}"
            )
            assert manager.waves_replayed == wave + 1
            assert manager.waves_committed == waves - (wave + 1)


class TestCombinedChaosWithDriverCrash:
    """The full failure model at once: task crashes, worker kills,
    storage rot AND a driver crash — resume still lands bit-identical."""

    @pytest.mark.parametrize("name", ("knn", "range_query_spatial", "skyline"))
    def test_resume_under_full_chaos(self, base_blob, tmp_path, name):
        clean = OPERATIONS[name](clone(base_blob))
        chaos = CHAOS + "," + STORAGE_CHAOS
        waves = probe_waves(base_blob, name, tmp_path / "probe.ckpt")
        wave = min(1, waves - 1)
        spec = chaos + f",crashdriver:{wave}"

        directory = tmp_path / "chaos.ckpt"
        crashed = clone(base_blob, faults=spec)
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            OPERATIONS[name](crashed)

        resumed = clone(base_blob, faults=spec)
        resumed.resume(directory)
        got = OPERATIONS[name](resumed)
        assert normalize(name, got.answer) == normalize(name, clean.answer)
        assert got.counters.as_dict() == clean.counters.as_dict()
        # The chaos wasn't idle: tasks really retried in the crashed or
        # resumed invocation.
        snap_crashed = crashed.metrics.snapshot()["counters"]
        snap_resumed = resumed.metrics.snapshot()["counters"]
        assert (
            snap_crashed.get("TASKS_RETRIED", 0)
            + snap_resumed.get("TASKS_RETRIED", 0)
        ) >= 1

    def test_torn_checkpoint_reexecutes_the_shredded_wave(
        self, base_blob, tmp_path
    ):
        """``crashdriver:<wave>:<fraction>`` shreds its own last
        checkpoint on the way down; resume discards it as corrupt and
        re-executes that wave."""
        clean = OPERATIONS["knn"](clone(base_blob))
        directory = tmp_path / "torn.ckpt"
        crashed = clone(base_blob, faults="crashdriver:0:0.4")
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            OPERATIONS["knn"](crashed)

        resumed = clone(base_blob, faults="crashdriver:0:0.4")
        manager = resumed.resume(directory)
        got = OPERATIONS["knn"](resumed)
        assert normalize("knn", got.answer) == normalize("knn", clean.answer)
        assert got.counters.as_dict() == clean.counters.as_dict()
        # Wave 0's journal was torn: it re-executed instead of replaying.
        assert manager.waves_replayed == 0
