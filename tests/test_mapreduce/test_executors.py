"""Backend equivalence: parallel execution must be invisible.

The parallel executor may only change real wall-clock time. Everything a
driver or an experiment can observe — answers, counters, pruning, the
simulated makespan, even the records stored in a built index — must be
identical to the serial backend. These tests run each representative
operation once per backend and compare the results field by field.
"""

import os
import subprocess
import sys

import pytest

from repro import Feature, SpatialHadoop
from repro.datagen import generate_points, generate_polygons, generate_rectangles
from repro.geometry import Point, Rectangle
from repro.index import build_index
from repro.mapreduce import (
    ClusterModel,
    FileSystem,
    JobRunner,
    ParallelExecutor,
    SerialExecutor,
    make_executor,
    resolve_workers,
)
from repro.mapreduce.executor import WORKERS_ENV_VAR
from repro.mapreduce.job import default_partitioner
from repro.operations import (
    closest_pair_spatial,
    farthest_pair_hadoop,
    farthest_pair_spatial,
    knn_join_hadoop,
    knn_join_spatial,
    knn_spatial,
    range_count_spatial,
    range_query_hadoop,
    range_query_spatial,
    skyline_output_sensitive,
    spatial_join_distributed,
    spatial_join_sjmr,
    union_enhanced,
    union_spatial,
    voronoi_spatial,
)
from repro.pigeon import run_script
from repro.viz import plot, plot_pyramid

SPACE = Rectangle(0, 0, 1000, 1000)
QUERY = Rectangle(120, 140, 420, 460)
PARALLEL_WORKERS = 3


def make_runner(workers):
    fs = FileSystem(default_block_capacity=150)
    cluster = ClusterModel(num_nodes=4, job_overhead_s=0.01)
    return JobRunner(fs, cluster, workers=workers)


def plain(value):
    """A job output with its index arrays as lists, so ``==`` is by value."""
    if hasattr(value, "tolist"):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return type(value)(plain(item) for item in value)
    return value


def assert_same_jobs(serial_jobs, parallel_jobs):
    assert len(serial_jobs) == len(parallel_jobs)
    for s, p in zip(serial_jobs, parallel_jobs):
        assert s.counters.as_dict() == p.counters.as_dict()
        assert plain(s.output) == plain(p.output)
        # Makespans embed *measured* per-task CPU seconds, so they are
        # statistically equal, not bit-equal; both must be simulated
        # times (positive, unaffected by which backend ran the tasks).
        assert s.makespan > 0 and p.makespan > 0


def assert_no_fallbacks(runner):
    executor = runner.executor
    assert isinstance(executor, ParallelExecutor)
    assert executor.fallbacks == 0


# ----------------------------------------------------------------------
# Executor construction / selection
# ----------------------------------------------------------------------
class TestExecutorSelection:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        assert isinstance(make_executor(None), SerialExecutor)
        assert isinstance(make_executor(1), SerialExecutor)

    def test_parallel_for_more_workers(self):
        executor = make_executor(4)
        assert isinstance(executor, ParallelExecutor)
        assert executor.workers == 4
        executor.close()

    def test_env_var_selects_backend(self, monkeypatch):
        monkeypatch.setenv(WORKERS_ENV_VAR, "5")
        assert resolve_workers(None) == 5
        assert resolve_workers(2) == 2  # explicit beats environment
        monkeypatch.delenv(WORKERS_ENV_VAR)
        assert resolve_workers(None) == 1

    def test_set_workers_swaps_backend(self, monkeypatch):
        monkeypatch.delenv(WORKERS_ENV_VAR, raising=False)
        runner = make_runner(workers=None)
        assert isinstance(runner.executor, SerialExecutor)
        runner.set_workers(PARALLEL_WORKERS)
        try:
            assert isinstance(runner.executor, ParallelExecutor)
            assert runner.workers == PARALLEL_WORKERS
        finally:
            runner.close()


# ----------------------------------------------------------------------
# End-to-end equivalence, one scenario per operation family
# ----------------------------------------------------------------------
@pytest.fixture
def runners():
    serial = make_runner(workers=1)
    parallel = make_runner(workers=PARALLEL_WORKERS)
    yield serial, parallel
    parallel.close()
    serial.close()


def load_points(runner, name="pts", n=900, seed=7):
    pts = generate_points(n, "uniform", seed=seed, space=SPACE)
    runner.fs.create_file(name, pts)
    return pts


class TestBackendEquivalence:
    def test_range_query_hadoop(self, runners):
        serial, parallel = runners
        results = []
        for runner in runners:
            load_points(runner)
            results.append(range_query_hadoop(runner, "pts", QUERY))
        assert sorted(results[0].answer) == sorted(results[1].answer)
        assert_same_jobs(results[0].jobs, results[1].jobs)
        assert_no_fallbacks(parallel)

    @pytest.mark.parametrize("technique", ["grid", "str", "quadtree"])
    def test_range_query_spatial(self, runners, technique):
        serial, parallel = runners
        results = []
        for runner in runners:
            load_points(runner)
            build_index(runner, "pts", "idx", technique)
            results.append(range_query_spatial(runner, "idx", QUERY))
        assert sorted(results[0].answer) == sorted(results[1].answer)
        assert_same_jobs(results[0].jobs, results[1].jobs)
        # Pruning must be identical (and actually prune something).
        assert results[0].blocks_read == results[1].blocks_read
        assert results[0].blocks_read < serial.fs.num_blocks("idx")
        assert_no_fallbacks(parallel)

    def test_range_count_spatial(self, runners):
        serial, parallel = runners
        results = []
        for runner in runners:
            load_points(runner)
            build_index(runner, "pts", "idx", "str")
            results.append(range_count_spatial(runner, "idx", QUERY))
        assert results[0].answer == results[1].answer
        assert_same_jobs(results[0].jobs, results[1].jobs)
        assert_no_fallbacks(parallel)

    def test_knn_spatial(self, runners):
        serial, parallel = runners
        results = []
        for runner in runners:
            load_points(runner)
            build_index(runner, "pts", "idx", "str")
            results.append(knn_spatial(runner, "idx", Point(500, 500), k=15))
        assert results[0].answer == results[1].answer
        assert results[0].rounds == results[1].rounds
        assert_same_jobs(results[0].jobs, results[1].jobs)
        assert_no_fallbacks(parallel)

    def test_spatial_join_sjmr(self, runners):
        serial, parallel = runners
        results = []
        for runner in runners:
            left = generate_rectangles(
                400, "uniform", seed=11, space=SPACE, avg_side_fraction=0.04
            )
            right = generate_rectangles(
                400, "uniform", seed=12, space=SPACE, avg_side_fraction=0.04
            )
            runner.fs.create_file("left", left)
            runner.fs.create_file("right", right)
            results.append(spatial_join_sjmr(runner, "left", "right"))
        assert sorted(results[0].answer) == sorted(results[1].answer)
        assert_same_jobs(results[0].jobs, results[1].jobs)
        assert_no_fallbacks(parallel)

    @pytest.mark.parametrize("technique", ["grid", "str"])
    def test_spatial_join_distributed(self, runners, technique):
        serial, parallel = runners
        results = []
        for runner in runners:
            left = generate_rectangles(
                350, "uniform", seed=21, space=SPACE, avg_side_fraction=0.04
            )
            right = generate_rectangles(
                350, "uniform", seed=22, space=SPACE, avg_side_fraction=0.04
            )
            runner.fs.create_file("left", left)
            runner.fs.create_file("right", right)
            build_index(runner, "left", "left_idx", technique)
            build_index(runner, "right", "right_idx", technique)
            results.append(
                spatial_join_distributed(runner, "left_idx", "right_idx")
            )
        assert sorted(results[0].answer) == sorted(results[1].answer)
        assert_same_jobs(results[0].jobs, results[1].jobs)
        assert_no_fallbacks(parallel)

    @pytest.mark.parametrize("technique", ["grid", "str", "hilbert"])
    def test_index_build_identical(self, runners, technique):
        serial, parallel = runners
        builds = []
        for runner in runners:
            load_points(runner)
            builds.append(build_index(runner, "pts", "idx", technique))
        s, p = builds
        assert [
            (c.cell_id, c.mbr, c.num_records) for c in s.global_index
        ] == [(c.cell_id, c.mbr, c.num_records) for c in p.global_index]
        s_blocks = serial.fs.get("idx").blocks
        p_blocks = parallel.fs.get("idx").blocks
        assert [b.records for b in s_blocks] == [b.records for b in p_blocks]
        assert_same_jobs(s.jobs, p.jobs)
        assert_no_fallbacks(parallel)

    def test_closure_job_falls_back_to_serial(self, runners):
        """Unpicklable jobs still run (in process) under a parallel runner."""
        _, parallel = runners
        from repro.mapreduce import Job

        load_points(parallel)
        seen = []  # captured by the closure -> unpicklable map_fn

        def closure_map(_key, records, ctx):
            seen.append(len(records))
            ctx.emit(1, len(records))

        result = parallel.run(Job(input_file="pts", map_fn=closure_map))
        assert sum(seen) == 900
        assert result.counters.get("MAP_INPUT_RECORDS") == 900
        assert parallel.executor.fallbacks > 0


# ----------------------------------------------------------------------
# Pair operations really run on the pool
# ----------------------------------------------------------------------
def _join_inputs(runner, left_technique, right_technique):
    for name, seed in (("left", 31), ("right", 32)):
        runner.fs.create_file(name, generate_rectangles(
            300, "uniform", seed=seed, space=SPACE, avg_side_fraction=0.05
        ))
    build_index(runner, "left", "left_idx", left_technique)
    build_index(runner, "right", "right_idx", right_technique)


def _point_inputs(runner):
    runner.fs.create_file(
        "pts", generate_points(900, "uniform", seed=33, space=SPACE)
    )
    runner.fs.create_file(
        "sites", generate_points(500, "gaussian", seed=34, space=SPACE)
    )
    build_index(runner, "pts", "pts_idx", "grid")
    build_index(runner, "sites", "sites_idx", "str")


def _geometry_inputs(runner):
    _point_inputs(runner)
    runner.fs.create_file("polys", generate_polygons(
        120, "uniform", seed=35, space=SPACE, avg_radius_fraction=0.03
    ))
    build_index(runner, "polys", "polys_idx", "grid", block_capacity=40)


#: name -> (set-up, operation)
PAIR_OPERATIONS = {
    "dj-same-technique": (
        lambda r: _join_inputs(r, "grid", "grid"),
        lambda r: spatial_join_distributed(r, "left_idx", "right_idx"),
    ),
    "dj-mixed-technique": (
        lambda r: _join_inputs(r, "str+", "hilbert"),
        lambda r: spatial_join_distributed(r, "left_idx", "right_idx"),
    ),
    "sjmr": (
        lambda r: _join_inputs(r, "grid", "grid"),
        lambda r: spatial_join_sjmr(r, "left", "right"),
    ),
    "knn-join": (
        _point_inputs,
        lambda r: knn_join_spatial(r, "pts_idx", "sites_idx", 3),
    ),
    "knn-join-hadoop": (
        _point_inputs, lambda r: knn_join_hadoop(r, "pts", "sites", 3),
    ),
    "closest-pair": (
        _point_inputs, lambda r: closest_pair_spatial(r, "pts_idx"),
    ),
    "voronoi": (_geometry_inputs, lambda r: voronoi_spatial(r, "pts_idx")),
    "farthest-pair": (
        _geometry_inputs, lambda r: farthest_pair_spatial(r, "pts_idx"),
    ),
    "farthest-pair-hadoop": (
        _geometry_inputs, lambda r: farthest_pair_hadoop(r, "pts"),
    ),
    "skyline-output-sensitive": (
        _geometry_inputs, lambda r: skyline_output_sensitive(r, "pts_idx"),
    ),
    "union": (_geometry_inputs, lambda r: union_spatial(r, "polys_idx")),
    "union-enhanced": (_geometry_inputs, lambda r: union_enhanced(r, "polys_idx")),
}


#: name -> (set-up, operation) for the jobs that draw pictures.
VIZ_OPERATIONS = {
    "plot": (_point_inputs, lambda r: plot(r, "pts", width=32, height=16)),
    "plot-indexed": (
        _point_inputs,
        lambda r: plot(r, "pts_idx", width=32, height=16, window=QUERY),
    ),
    "pyramid": (
        _point_inputs, lambda r: plot_pyramid(r, "pts", levels=3, tile_size=8),
    ),
}

PIGEON_SCRIPT = """
    p = LOAD 'pois';
    c = FILTER p BY cat == 'cafe' AND X(geom) < 800;
    n = FOREACH c GENERATE name, Area(geom) AS a;
    DUMP c;
    DUMP n;
"""


def answer_view(result):
    """The answer in a form ``==`` compares by value: canvases by counts."""
    answer = result.answer
    if hasattr(answer, "tiles"):
        return {tile: canvas.counts for tile, canvas in answer.tiles.items()}
    return getattr(answer, "counts", answer)


class TestPairOperationsRunOnThePool:
    """Module-level map/reduce functions ship: no wave of a pair operation,
    a plot or a Pigeon scan falls back in-process, and its answer is the
    serial one, in order."""

    OPERATIONS = {**PAIR_OPERATIONS, **VIZ_OPERATIONS}

    @pytest.mark.parametrize("name", sorted(OPERATIONS))
    def test_no_fallback_and_pooled(self, name):
        set_up, operation = self.OPERATIONS[name]
        serial, parallel = make_runner(workers=1), make_runner(workers=2)
        try:
            set_up(serial)
            set_up(parallel)
            self.check(
                parallel.executor,
                lambda: answer_view(operation(parallel)),
                lambda: answer_view(operation(serial)),
            )
        finally:
            parallel.close()

    def test_pigeon_filter_and_foreach(self):
        serial, parallel = (
            SpatialHadoop(num_nodes=4, block_capacity=150, workers=workers)
            for workers in (1, 2)
        )
        points = generate_points(1200, "uniform", seed=36, space=SPACE)
        for sh in (serial, parallel):
            sh.fs.create_file("pois", [
                Feature(p, {"name": f"poi{i}", "cat": ("cafe", "shop")[i % 2]})
                for i, p in enumerate(points)
            ])
        try:
            self.check(
                parallel.runner.executor,
                lambda: run_script(parallel, PIGEON_SCRIPT).dumped,
                lambda: run_script(serial, PIGEON_SCRIPT).dumped,
            )
        finally:
            parallel.runner.close()

    @staticmethod
    def check(executor, run_parallel, run_serial):
        dispatches = []
        map_chunks = executor.map_chunks

        def recording(fn, chunks):
            results = map_chunks(fn, chunks)
            dispatches.append(dict(executor.last_dispatch))
            return results

        executor.map_chunks = recording
        try:
            got = run_parallel()
        finally:
            del executor.map_chunks
        assert got == run_serial()
        assert executor.fallbacks == 0
        # A wave of one chunk has nothing to overlap and stays in the
        # driver by design; every other wave went to the workers.
        shared = [d for d in dispatches if d["chunks"] > 1]
        assert shared and all(d["mode"] == "pool" for d in shared)


# ----------------------------------------------------------------------
# Stable partitioner regression
# ----------------------------------------------------------------------
class TestStablePartitioner:
    #: Pinned bucket assignments. These values are a contract: they must
    #: never change across runs, processes, or Python hash seeds, or
    #: shuffles stop being reproducible.
    PINNED = [
        ("a", 8, 4),
        (b"a", 8, 3),
        (1, 8, 6),
        (1.5, 8, 5),
        (None, 8, 4),
        (("x", 3), 8, 5),
        ("node/42", 8, 2),
        (frozenset({1, 2}), 8, 3),
        ("a", 3, 2),
        (1, 3, 0),
        (("x", 3), 3, 2),
    ]

    @pytest.mark.parametrize("key,n,expected", PINNED)
    def test_pinned_assignment(self, key, n, expected):
        assert default_partitioner(key, n) == expected

    def test_equal_keys_share_a_bucket(self):
        # Reducers group keys by equality, so the partitioner must agree
        # with ``==``: True == 1 and 1.0 == 1 may not split a group.
        for n in (2, 3, 8, 16):
            assert default_partitioner(True, n) == default_partitioner(1, n)
            assert default_partitioner(False, n) == default_partitioner(0, n)
            assert default_partitioner(1.0, n) == default_partitioner(1, n)

    def test_stable_across_hash_seeds(self):
        """The assignment must not depend on PYTHONHASHSEED."""
        code = (
            "import sys; sys.path.insert(0, 'src');"
            "from repro.mapreduce.job import default_partitioner as p;"
            "print([p(k, 8) for k in ('a', 'node/42', ('x', 3), 1, None)])"
        )
        outs = set()
        for seed in ("0", "1", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            out = subprocess.run(
                [sys.executable, "-c", code],
                capture_output=True,
                text=True,
                env=env,
                cwd=os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                check=True,
            ).stdout.strip()
            outs.add(out)
        assert len(outs) == 1
        assert outs.pop() == "[4, 2, 5, 6, 4]"

    def test_spreads_keys(self):
        buckets = {default_partitioner(i, 16) for i in range(200)}
        assert len(buckets) == 16
