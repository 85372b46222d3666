"""Chaos suite: every operation survives injected faults unchanged.

The acceptance bar for the fault-tolerance layer: under a seeded
:class:`FaultPlan` that crashes several task attempts and kills a worker,
every operation in ``repro.operations`` must produce output and counters
identical to a fault-free run — the chaos is visible only in the attempt
history, the fault summaries, and the simulated makespans.
"""

import os

import pytest

from repro import SpatialHadoop
from repro.datagen import (
    generate_points,
    generate_polygons,
    generate_rectangles,
)
from repro.geometry import Point, Rectangle

#: The scripted chaos: first attempts of map task 1 die with their worker,
#: map task 0 and reduce task 0 crash/corrupt, and a seeded 8% background
#: crash rate peppers everything else. Deterministic: every run of every
#: backend injects exactly the same faults.
CHAOS = (
    "seed:11,kill:map:1,crash:map:0,corrupt:reduce:0,random:crash:0.08:7"
)

WINDOW = Rectangle(2e5, 2e5, 6e5, 6e5)
QPOINT = Point(5e5, 5e5)


def build_workspace(**kwargs):
    sh = SpatialHadoop(num_nodes=4, block_capacity=250,
                       job_overhead_s=0.01, **kwargs)
    sh.load("pts", generate_points(1500, "uniform", seed=5))
    sh.load("pts2", generate_points(600, "uniform", seed=8))
    sh.load("polys", generate_polygons(150, "uniform", seed=9))
    sh.load("rects_l", generate_rectangles(
        400, "uniform", seed=6, avg_side_fraction=0.03))
    sh.load("rects_r", generate_rectangles(
        400, "uniform", seed=7, avg_side_fraction=0.03))
    sh.index("pts", "pts_idx", technique="str")
    sh.index("pts", "pts_qidx", technique="quadtree")  # disjoint
    sh.index("pts2", "pts2_qidx", technique="quadtree")
    sh.index("rects_l", "l_idx", technique="grid")
    sh.index("rects_r", "r_idx", technique="grid")
    return sh


#: name -> callable(sh) returning an OperationResult; answers must be
#: bit-identical between clean and chaos runs.
OPERATIONS = {
    "range_query_hadoop": lambda sh: sh.range_query("pts", WINDOW),
    "range_query_spatial": lambda sh: sh.range_query("pts_idx", WINDOW),
    "range_count": lambda sh: sh.range_count("pts_idx", WINDOW),
    "knn": lambda sh: sh.knn("pts_idx", QPOINT, 9),
    "sjoin_sjmr": lambda sh: sh.spatial_join("rects_l", "rects_r"),
    "sjoin_distributed": lambda sh: sh.spatial_join("l_idx", "r_idx"),
    "knn_join": lambda sh: sh.knn_join("pts_qidx", "pts2_qidx", 2),
    "skyline": lambda sh: sh.skyline("pts_idx"),
    "convex_hull": lambda sh: sh.convex_hull("pts_idx"),
    "closest_pair": lambda sh: sh.closest_pair("pts_qidx"),
    "farthest_pair": lambda sh: sh.farthest_pair("pts_idx"),
    "voronoi": lambda sh: sh.voronoi("pts_qidx"),
    "union": lambda sh: sh.union("polys"),
}


def normalize(name, answer):
    if name == "voronoi":
        return (len(answer.regions), answer.pruned_fraction)
    if isinstance(answer, list):
        return answer
    return answer


class TestChaosEquivalence:
    @pytest.fixture(scope="class")
    def workspaces(self):
        clean = build_workspace()
        chaotic = build_workspace(faults=CHAOS)
        return clean, chaotic

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_operation_is_fault_transparent(self, workspaces, name):
        clean, chaotic = workspaces
        run = OPERATIONS[name]
        want, got = run(clean), run(chaotic)
        assert normalize(name, got.answer) == normalize(name, want.answer)
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got.rounds == want.rounds
        # Faulted jobs pay for their retries in simulated time.
        assert got.makespan >= want.makespan

    def test_chaos_actually_happened(self, workspaces):
        clean, chaotic = workspaces
        snap = chaotic.metrics.snapshot()["counters"]
        assert snap.get("FAULTS_INJECTED", 0) >= 4
        assert snap.get("TASK_CRASHES", 0) >= 3
        assert snap.get("TASKS_WORKER_LOST", 0) >= 1
        assert snap.get("TASKS_RETRIED", 0) >= 4
        assert clean.metrics.snapshot()["counters"].get("TASKS_RETRIED", 0) == 0

    def test_history_shows_retried_attempts(self, workspaces):
        _, chaotic = workspaces
        retried = [
            task
            for rec in chaotic.history
            for task in rec.tasks_with_attempts()
        ]
        assert retried
        outcomes = {
            a.outcome for task in retried for a in task.attempts
        }
        assert "success" in outcomes
        assert {"crash", "worker-lost"} & outcomes
        report = chaotic.history.report()
        assert "fault summary:" in report


@pytest.mark.usefixtures("pool_pinned")
class TestChaosParallelBackend:
    """The same chaos through real worker processes: a kill really kills."""

    def test_parallel_matches_clean_serial(self):
        clean = build_workspace()
        chaotic = build_workspace(faults=CHAOS, workers=2)
        try:
            for name in ("range_query_spatial", "sjoin_distributed", "knn"):
                run = OPERATIONS[name]
                want, got = run(clean), run(chaotic)
                assert normalize(name, got.answer) == normalize(
                    name, want.answer
                )
                assert got.counters.as_dict() == want.counters.as_dict()
            # The injected kill took down a real worker process at least
            # once across the workspace's jobs.
            assert chaotic.runner.executor.pool_rebuilds >= 1
        finally:
            chaotic.runner.close()
            clean.runner.close()

    @pytest.mark.parametrize("faults", [None, CHAOS], ids=["clean", "chaos"])
    def test_every_operation_on_the_pool(self, faults):
        """Every operation on two workers — sealed blocks shipped as
        their columns — answers like the clean serial run, with the same
        counters and rounds."""
        clean = build_workspace()
        pooled = build_workspace(faults=faults, workers=2)
        try:
            for name, run in OPERATIONS.items():
                want, got = run(clean), run(pooled)
                assert normalize(name, got.answer) == normalize(
                    name, want.answer
                ), name
                assert got.counters.as_dict() == want.counters.as_dict(), name
                assert got.rounds == want.rounds, name
        finally:
            pooled.runner.close()
            clean.runner.close()


#: Storage chaos: a datanode dies, and three blocks (one per layer —
#: a heap file, an STR index, a grid index) each lose one replica to
#: bit-rot. Reads must fail over; answers must not move.
STORAGE_CHAOS = (
    "losenode:1,corruptblock:pts_idx:0,corruptblock:pts:1:0,"
    "corruptblock:l_idx:0:1"
)


class TestStorageChaos:
    """Node loss and replica corruption are invisible to every operation."""

    @pytest.fixture(scope="class")
    def workspaces(self):
        clean = build_workspace()
        chaotic = build_workspace(faults=STORAGE_CHAOS)
        return clean, chaotic

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_operation_is_storage_fault_transparent(self, workspaces, name):
        clean, chaotic = workspaces
        run = OPERATIONS[name]
        want, got = run(clean), run(chaotic)
        assert normalize(name, got.answer) == normalize(name, want.answer)
        assert got.counters.as_dict() == want.counters.as_dict()
        assert got.rounds == want.rounds

    def test_storage_chaos_actually_happened(self, workspaces):
        clean, chaotic = workspaces
        snap = chaotic.metrics.snapshot()["counters"]
        assert snap.get("DATANODES_LOST", 0) == 1
        assert snap.get("REPLICAS_REPAIRED", 0) >= 1
        assert snap.get("BLOCKS_CORRUPT_DETECTED", 0) >= 3
        assert snap.get("READ_FAILOVERS", 0) >= 3
        # Storage faults trigger no task retries: the equivalence above
        # is pure read-path failover, not re-execution.
        assert snap.get("TASKS_RETRIED", 0) == 0
        if not os.environ.get("REPRO_FAULTS"):
            # Meaningless under the whole-process chaos hook: the
            # "clean" workspace inherits $REPRO_FAULTS too.
            clean_snap = clean.metrics.snapshot()["counters"]
            assert clean_snap.get("READ_FAILOVERS", 0) == 0

    def test_losenode_repair_charged_to_a_job(self, workspaces):
        _, chaotic = workspaces
        charged = [
            rec for rec in chaotic.history
            if "storage_repair_s" in rec.fault_summary
        ]
        assert len(charged) == 1
        assert charged[0].fault_summary["storage_repair_s"] > 0

    def test_fsck_repair_restores_full_health(self, workspaces):
        _, chaotic = workspaces
        before = chaotic.fsck()
        assert before.count("corrupt-replica") >= 1
        repaired = chaotic.fsck(repair=True)
        assert repaired.healthy
        after = chaotic.fsck()
        assert after.healthy
        assert after.count("corrupt-replica") == 0
        assert after.count("under-replicated") == 0
        assert after.count("missing-replica") == 0

    @pytest.mark.usefixtures("pool_pinned")
    def test_parallel_backend_matches_clean_serial(self):
        clean = build_workspace()
        chaotic = build_workspace(faults=STORAGE_CHAOS, workers=2)
        try:
            for name in ("range_query_spatial", "sjoin_distributed", "knn"):
                run = OPERATIONS[name]
                want, got = run(clean), run(chaotic)
                assert normalize(name, got.answer) == normalize(
                    name, want.answer
                )
                assert got.counters.as_dict() == want.counters.as_dict()
            snap = chaotic.metrics.snapshot()["counters"]
            assert snap.get("READ_FAILOVERS", 0) >= 1
        finally:
            chaotic.runner.close()
            clean.runner.close()


class TestCombinedChaos:
    """Task faults and storage faults at once: the full failure model."""

    def test_operations_survive_both_fault_classes(self):
        clean = build_workspace()
        chaotic = build_workspace(faults=CHAOS + "," + STORAGE_CHAOS)
        for name in ("range_query_spatial", "knn", "union", "skyline"):
            run = OPERATIONS[name]
            want, got = run(clean), run(chaotic)
            assert normalize(name, got.answer) == normalize(name, want.answer)
            assert got.counters.as_dict() == want.counters.as_dict()
        snap = chaotic.metrics.snapshot()["counters"]
        assert snap.get("TASKS_RETRIED", 0) >= 1
        assert snap.get("READ_FAILOVERS", 0) >= 1
