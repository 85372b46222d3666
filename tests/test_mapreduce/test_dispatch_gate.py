"""The parallel executor's dispatch gate: a wave goes to the pool only
when the pool has measured faster for that kind of wave.

The decision is tested on synthetic measurements; the live gate is
tested end to end for answers, counters and attempt histories equal to
the serial backend's, and for small waves that never start a pool.
"""

import random
import time

import pytest

from repro import SpatialHadoop
from repro.datagen import generate_points, generate_polygons, generate_rectangles
from repro.geometry import Point, Rectangle
from repro.mapreduce import ParallelExecutor
from repro.mapreduce.executor import DispatchGate
from repro.operations.table import OPERATIONS

pytestmark = pytest.mark.usefixtures("gate_live")

KIND = ("tests.map_fn", "map")


def gate_with(serial=None, pool=None, probe=None, round_trip_s=None,
              start_s=None):
    """A gate that has learned seconds per record for KIND."""
    gate = DispatchGate()
    gate.round_trip_s, gate.start_s = round_trip_s, start_s
    for mode, rate in (("in-process", serial), ("pool", pool),
                       ("probe", probe)):
        if rate is not None:
            gate.learn(KIND, mode, 1_000, rate * 1_000)
    return gate


class TestDecision:
    def test_an_unseen_kind_runs_in_process(self):
        decision = DispatchGate().decide(KIND, 10_000, pool_up=False)
        assert decision == {"mode": "in-process", "reason": "unseen",
                            "records": 10_000, "serial_s": None,
                            "pool_s": None}

    def test_a_wave_below_the_round_trip_stays_in_the_driver(self):
        # 1 µs per record: 500 records predict 0.5 ms, under a 1 ms trip.
        gate = gate_with(serial=1e-6, round_trip_s=0.001, start_s=0.02)
        decision = gate.decide(KIND, 500, pool_up=True)
        assert decision["mode"] == "in-process"
        assert decision["reason"] == "below-round-trip"
        assert decision["serial_s"] == pytest.approx(0.0005)

    def test_a_pool_that_is_down_must_hide_its_start(self):
        gate = gate_with(serial=1e-6, round_trip_s=0.001, start_s=0.02)
        assert gate.decide(KIND, 10_000, False)["reason"] == (
            "below-round-trip")
        assert gate.decide(KIND, 10_000, True)["reason"] == "trial"
        assert gate.decide(KIND, 30_000, False)["reason"] == "trial"

    def test_before_any_pool_the_bar_is_a_worker_start(self):
        gate = gate_with(serial=1e-6, start_s=0.02)
        # No round trip measured yet: "up" cannot be trusted.
        assert gate.decide(KIND, 10_000, True)["reason"] == (
            "below-round-trip")
        assert gate.decide(KIND, 30_000, True)["reason"] == "trial"

    def test_a_probe_rate_decides_the_first_trial(self):
        gate = gate_with(probe=1e-6, start_s=0.001)
        decision = gate.decide(KIND, 5_000, pool_up=False)
        assert (decision["mode"], decision["reason"]) == ("pool", "trial")
        assert decision["serial_s"] == pytest.approx(0.005)
        assert decision["pool_s"] is None

    def test_a_probe_alone_never_puts_a_kind_on_the_pool(self):
        # The pool beats the first chunk's estimate: the driver gets its
        # own trial on a whole wave before the gate trusts the pool.
        gate = gate_with(probe=10e-6, pool=4e-6, round_trip_s=0.001,
                         start_s=0.005)
        decision = gate.decide(KIND, 2_000, pool_up=True)
        assert (decision["mode"], decision["reason"]) == (
            "in-process", "trial")

    def test_pool_measured_faster_goes_to_the_pool(self):
        gate = gate_with(serial=10e-6, pool=4e-6, round_trip_s=0.001,
                         start_s=0.015)
        decision = gate.decide(KIND, 2_000, pool_up=True)
        assert (decision["mode"], decision["reason"]) == ("pool", "measured")
        assert decision["serial_s"] == pytest.approx(0.020)
        assert decision["pool_s"] == pytest.approx(0.008)
        # Down, the pool's start tips the same wave into the driver.
        decision = gate.decide(KIND, 2_000, pool_up=False)
        assert (decision["mode"], decision["reason"]) == (
            "in-process", "measured")
        assert decision["pool_s"] == pytest.approx(0.023)

    def test_serial_measured_faster_stays_in_the_driver(self):
        gate = gate_with(serial=4e-6, pool=10e-6, round_trip_s=0.001,
                         start_s=0.005)
        decision = gate.decide(KIND, 2_000, pool_up=True)
        assert (decision["mode"], decision["reason"]) == (
            "in-process", "measured")

    def test_a_mode_keeps_its_best_rate(self):
        gate = DispatchGate()
        gate.learn(KIND, "in-process", 1_000, 0.004)
        gate.learn(KIND, "in-process", 4_000, 0.004)  # 1 µs per record
        gate.learn(KIND, "in-process", 1_000, 0.050)  # a slowed wave
        gate.learn(KIND, "pool", 0, 0.001)  # an empty wave counts as one
        assert gate.predict(KIND, "in-process", 3_000) == pytest.approx(0.003)
        assert gate.predict(KIND, "pool", 1) == pytest.approx(0.001)
        assert gate.predict(("other", "map"), "in-process", 1) is None


def _double(chunk):
    return [2 * value for value in chunk]


def _slow_double(chunk):
    time.sleep(0.01 * len(chunk))
    return _double(chunk)


class TestExecutorWave:
    CHUNKS = [[1, 2], [3], [4, 5]]
    RECORDS = [2, 1, 2]

    def test_a_small_first_wave_stays_in_the_driver(self):
        ex = ParallelExecutor(2)
        ex.gate.start_s = 0.5
        try:
            got = ex.run_wave(_double, self.CHUNKS, KIND, self.RECORDS)
            assert got == [[2, 4], [6], [8, 10]]
            assert ex._pool is None
            # The first chunk measured the kind in the driver; the other
            # three records cannot hide a pool start.
            dispatch = ex.last_dispatch
            assert (dispatch["mode"], dispatch["reason"]) == (
                "in-process", "below-round-trip")
            assert (dispatch["probe_records"], dispatch["records"]) == (2, 3)
            assert dispatch["chunks"] == 3
            assert set(ex.gate.rates[KIND]) == {"probe", "in-process"}
            # Seen now: the next wave runs whole, with no probe.
            ex.run_wave(_double, self.CHUNKS, KIND, self.RECORDS)
            assert ex.last_dispatch["reason"] == "below-round-trip"
            assert "probe_records" not in ex.last_dispatch
        finally:
            ex.close()

    def test_a_big_first_wave_gets_its_trial_on_the_pool(self):
        ex = ParallelExecutor(2)
        ex.gate.start_s = 1e-6
        try:
            got = ex.run_wave(_slow_double, self.CHUNKS, KIND, self.RECORDS)
            assert got == [[2, 4], [6], [8, 10]]
            dispatch = ex.last_dispatch
            assert (dispatch["mode"], dispatch["reason"]) == ("pool", "trial")
            assert dispatch["probe_records"] == 2
            # Starting the pool is reported, kept out of the rate, and
            # becomes the gate's price of a start.
            assert 1e-6 < ex.gate.start_s <= dispatch["startup_s"]
            assert ex.gate.round_trip_s is not None
            assert set(ex.gate.rates[KIND]) == {"probe", "pool"}
        finally:
            ex.close()

    def test_an_unseen_single_chunk_runs_in_the_driver(self):
        ex = ParallelExecutor(2)
        try:
            assert ex.run_wave(_double, [[1, 2]], KIND, [2]) == [[2, 4]]
            assert ex.last_dispatch["reason"] == "unseen"
            assert ex._pool is None
        finally:
            ex.close()

    def test_a_kill_in_the_driver_loses_no_worker(self):
        """A wave that scripts a worker kill passes the gate like any
        other. Kept in the driver, the kill is the serial backend's
        ``worker-lost`` attempt, and no pool starts."""
        serial, parallel = (
            SpatialHadoop(num_nodes=4, block_capacity=150, workers=workers,
                          faults="kill:map:1")
            for workers in (1, 2)
        )
        executor = parallel.runner.executor
        executor.gate.start_s = 3600.0  # a pool too dear to start
        points = generate_points(600, "uniform", seed=46, space=SPACE)
        try:
            answers, histories = [], []
            for sh in (serial, parallel):
                sh.load("pts", points)
                result = sh.range_query("pts", WINDOW)
                answers.append(result.answer)
                histories.append([
                    (task.task_id, [(a.attempt, a.outcome)
                                    for a in task.attempts])
                    for task in result.jobs[0].map_tasks
                ])
            assert answers[0] == answers[1]
            assert histories[0] == histories[1]
            assert ("map-1", [(0, "worker-lost"), (1, "success")]) in (
                histories[1])
            assert executor.last_dispatch["mode"] == "in-process"
            assert executor._pool is None
            assert executor.pool_rebuilds == 0
        finally:
            parallel.runner.close()

    def test_measured_modes_and_measurements_survive_close(self):
        ex = ParallelExecutor(2)
        ex.gate.learn(KIND, "in-process", 5, 1.0)  # slow in the driver
        ex.gate.learn(KIND, "pool", 5, 1e-3)
        ex.gate.round_trip_s = ex.gate.start_s = 0.0  # a free pool
        try:
            ex.run_wave(_double, self.CHUNKS, KIND, self.RECORDS)
            assert ex.last_dispatch["reason"] == "measured"
            assert ex.last_dispatch["mode"] == "pool"
            assert ex.gate.start_s > 0.0  # the start it just paid
            ex.close()
            # Once the driver measures faster, the kind stays there.
            ex.gate.rates[KIND]["in-process"] = 1e-9
            ex.gate.start_s = 0.0
            ex.run_wave(_double, self.CHUNKS, KIND, self.RECORDS)
            assert ex.last_dispatch["reason"] == "measured"
            assert ex.last_dispatch["mode"] == "in-process"
            assert ex._pool is None
            assert ex.gate.round_trip_s == 0.0
        finally:
            ex.close()


# ----------------------------------------------------------------------
# The live gate end to end
# ----------------------------------------------------------------------
SPACE = Rectangle(0.0, 0.0, 1000.0, 1000.0)
WINDOW = Rectangle(200.0, 150.0, 520.0, 610.0)
FAULTS = "seed:4,crash:map:1,crash:reduce:0"


def _system(workers):
    sh = SpatialHadoop(num_nodes=4, block_capacity=150, job_overhead_s=0.01,
                       workers=workers, faults=FAULTS)
    sh.load("pts", generate_points(900, "uniform", seed=41, space=SPACE))
    sh.load("rects", generate_rectangles(
        400, "uniform", seed=42, space=SPACE, avg_side_fraction=0.03))
    sh.load("polys", generate_polygons(
        120, "uniform", seed=43, space=SPACE, avg_radius_fraction=0.03))
    sh.index("pts", "pts_idx", technique="str+")
    sh.index("rects", "rects_idx", technique="grid")
    sh.index("polys", "polys_idx", technique="grid")
    return sh


#: One call per operation of the query language.
CALLS = {
    "range": ("pts_idx", WINDOW),
    "count": ("pts_idx", WINDOW),
    "knn": ("pts_idx", Point(480.0, 520.0), 7),
    "sjoin": ("rects_idx", "rects"),
    "knnjoin": ("pts_idx", "pts", 3),
    "skyline": ("pts_idx",),
    "hull": ("pts_idx",),
    "closestpair": ("pts_idx",),
    "farthestpair": ("pts_idx",),
    "union": ("polys_idx",),
    "voronoi": ("pts_idx",),
}


def _observed(sh, name):
    """An operation's answer, per-job counters and attempt histories."""
    result = getattr(sh, OPERATIONS[name].method)(*CALLS[name])
    jobs = [
        (
            job.counters.as_dict(),
            [(task.task_id, [(a.attempt, a.outcome) for a in task.attempts])
             for task in list(job.map_tasks) + list(job.reduce_tasks)],
        )
        for job in result.jobs
    ]
    return repr(result.answer), jobs


def test_table_operations_match_serial_with_the_gate_live():
    assert sorted(CALLS) == sorted(OPERATIONS)
    serial, parallel = _system(1), _system(2)
    gate = parallel.runner.executor.gate
    try:
        for round_ in range(3):
            if round_ == 1:
                # A host whose pool costs nothing to start or reach:
                # every kind seen in the first round now gets a pool
                # trial, then its measured mode (a start measures again).
                gate.round_trip_s = gate.start_s = 0.0
            for name in sorted(CALLS):
                assert _observed(parallel, name) == _observed(serial, name), (
                    round_, name)
        assert any("pool" in modes for modes in gate.rates.values())
    finally:
        parallel.runner.close()


def test_a_burst_of_tiny_range_queries_never_starts_a_pool():
    serial, parallel = (
        SpatialHadoop(num_nodes=4, block_capacity=200, workers=workers)
        for workers in (1, 2)
    )
    points = generate_points(4_000, "uniform", seed=44, space=SPACE)
    for sh in (serial, parallel):
        sh.load("pts", points)
        sh.index("pts", "pts_idx", technique="str")
    rng = random.Random(45)
    executor = parallel.runner.executor
    shared = 0
    try:
        # The index build may have had its trial on the pool; the burst
        # starts from a closed one, with everything the gate learned.
        parallel.runner.close()
        for _ in range(30):
            x, y = rng.uniform(0, 960), rng.uniform(0, 960)
            window = Rectangle(x, y, x + 40.0, y + 40.0)
            got = parallel.range_query("pts_idx", window).answer
            assert got == serial.range_query("pts_idx", window).answer
            shared += executor.last_dispatch["chunks"] > 1
        # Some waves had several blocks, which the pool would have taken.
        assert shared
        assert executor._pool is None
    finally:
        parallel.runner.close()
