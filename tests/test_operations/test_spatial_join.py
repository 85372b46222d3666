"""Spatial join correctness: SJMR and the distributed join."""

import pytest

from repro import Feature, SpatialHadoop
from repro.core.workspace import load_workspace, save_workspace
from repro.datagen import generate_points, generate_rectangles
from repro.geometry import Rectangle
from repro.index import build_index
from repro.mapreduce.storage import BlockUnavailableError
from repro.operations import spatial_join_distributed, spatial_join_sjmr
from repro.operations.spatial_join import plane_sweep_join

SPACE = Rectangle(0, 0, 1000, 1000)


def brute_count(left, right):
    return sum(1 for l in left for r in right if l.mbr.intersects(r.mbr))


def canon(pairs):
    """An answer as a sorted list of value keys: order-free, exactly-once."""
    return sorted((repr(l), repr(r)) for l, r in pairs)


def brute_pairs(left, right):
    return canon(
        (l, r) for l in left for r in right if l.mbr.intersects(r.mbr)
    )


def make_inputs(runner, n=400, side=0.03, seeds=(1, 2)):
    left = generate_rectangles(
        n, "uniform", seed=seeds[0], space=SPACE, avg_side_fraction=side
    )
    right = generate_rectangles(
        n, "uniform", seed=seeds[1], space=SPACE, avg_side_fraction=side
    )
    runner.fs.create_file("L", left)
    runner.fs.create_file("R", right)
    return left, right


class TestPlaneSweep:
    def test_matches_bruteforce(self):
        left = generate_rectangles(120, "uniform", seed=5, space=SPACE, avg_side_fraction=0.05)
        right = generate_rectangles(120, "uniform", seed=6, space=SPACE, avg_side_fraction=0.05)
        pairs = plane_sweep_join(left, right)
        assert len(pairs) == brute_count(left, right)
        for l, r in pairs:
            assert l.intersects(r)

    def test_empty_sides(self):
        assert plane_sweep_join([], [Rectangle(0, 0, 1, 1)]) == []
        assert plane_sweep_join([Rectangle(0, 0, 1, 1)], []) == []

    def test_points_vs_rects(self):
        pts = generate_points(100, "uniform", seed=7, space=SPACE)
        rects = generate_rectangles(50, "uniform", seed=8, space=SPACE, avg_side_fraction=0.1)
        pairs = plane_sweep_join(pts, rects)
        assert len(pairs) == brute_count(pts, rects)


class TestSJMR:
    def test_matches_bruteforce(self, runner):
        left, right = make_inputs(runner)
        result = spatial_join_sjmr(runner, "L", "R")
        assert len(result.answer) == brute_count(left, right)
        assert result.system == "hadoop"

    def test_exactly_once_despite_grid_replication(self, runner):
        # Large rectangles span many SJMR grid cells; the reference point
        # must keep each pair unique.
        left, right = make_inputs(runner, n=150, side=0.2)
        result = spatial_join_sjmr(runner, "L", "R")
        assert len(result.answer) == brute_count(left, right)
        assert len({(id(l), id(r)) for l, r in result.answer}) == len(result.answer)

    def test_empty_input(self, runner):
        runner.fs.create_file("L", [])
        runner.fs.create_file("R", [])
        assert spatial_join_sjmr(runner, "L", "R").answer == []

    def test_custom_grid_size(self, runner):
        left, right = make_inputs(runner, n=200)
        result = spatial_join_sjmr(runner, "L", "R", grid_size=7)
        assert len(result.answer) == brute_count(left, right)
        assert canon(result.answer) == brute_pairs(left, right)

    def test_self_join(self, runner):
        left, _ = make_inputs(runner, n=150, side=0.1)
        result = spatial_join_sjmr(runner, "L", "L", grid_size=3)
        # Every record meets itself, and every other pair in both orders.
        assert canon(result.answer) == brute_pairs(left, left)
        assert result.jobs[-1].blocks_read == runner.fs.num_blocks("L")

    def test_coordinates_cross_the_shuffle_as_columns(self, runner):
        make_inputs(runner, n=300)
        counters = spatial_join_sjmr(runner, "L", "R").jobs[-1].counters
        # One value per (block, cell, side), not one per record per cell.
        assert counters["SHUFFLE_RECORDS"] < 600 / 4


@pytest.mark.parametrize(
    "left_tech,right_tech",
    [
        ("grid", "grid"),
        ("str+", "str+"),
        ("quadtree", "kdtree"),
        ("str", "str"),
        ("hilbert", "zcurve"),
        ("str+", "str"),  # mixed disjoint/overlapping
        ("str", "grid"),
    ],
)
class TestDistributedJoin:
    def test_matches_bruteforce(self, runner, left_tech, right_tech):
        left, right = make_inputs(runner)
        build_index(runner, "L", "Li", left_tech)
        build_index(runner, "R", "Ri", right_tech)
        result = spatial_join_distributed(runner, "Li", "Ri")
        assert len(result.answer) == brute_count(left, right)

    def test_large_shapes_exactly_once(self, runner, left_tech, right_tech):
        left, right = make_inputs(runner, n=120, side=0.15)
        build_index(runner, "L", "Li", left_tech)
        build_index(runner, "R", "Ri", right_tech)
        result = spatial_join_distributed(runner, "Li", "Ri")
        assert len(result.answer) == brute_count(left, right)


class TestDistributedJoinDetails:
    def test_requires_indexes(self, runner):
        make_inputs(runner, n=50)
        with pytest.raises(ValueError):
            spatial_join_distributed(runner, "L", "R")

    def test_creates_no_file(self, runner):
        make_inputs(runner, n=100)
        build_index(runner, "L", "Li", "grid")
        build_index(runner, "R", "Ri", "str")
        files = runner.fs.list_files()
        mutations = runner.fs.mutation_count
        spatial_join_distributed(runner, "Li", "Ri")
        assert runner.fs.list_files() == files
        assert runner.fs.mutation_count == mutations

    @pytest.mark.parametrize("victim", ["Li", "Ri"])
    def test_input_with_no_healthy_replica_fails_typed(self, runner, victim):
        """Both inputs are read through the checksummed path although no
        map split names their blocks."""
        make_inputs(runner, n=100)
        build_index(runner, "L", "Li", "grid")
        build_index(runner, "R", "Ri", "grid")
        block = runner.fs.get(victim).blocks[-1]
        for replica in range(len(block.replicas)):
            runner.fs.storage.corrupt_replica(block, replica)
        with pytest.raises(BlockUnavailableError):
            spatial_join_distributed(runner, "Li", "Ri")

    def test_disjoint_sides_join_empty(self, runner):
        left = generate_rectangles(
            100, "uniform", seed=1, space=Rectangle(0, 0, 400, 400),
            avg_side_fraction=0.02,
        )
        right = generate_rectangles(
            100, "uniform", seed=2, space=Rectangle(600, 600, 1000, 1000),
            avg_side_fraction=0.02,
        )
        runner.fs.create_file("L", left)
        runner.fs.create_file("R", right)
        build_index(runner, "L", "Li", "str")
        build_index(runner, "R", "Ri", "str")
        result = spatial_join_distributed(runner, "Li", "Ri")
        assert result.answer == []
        # The global-index join found no overlapping partition pairs at all.
        assert result.blocks_read == 0


# ----------------------------------------------------------------------
# Every ordered pair of techniques, three kinds of records, three systems
# ----------------------------------------------------------------------
TECHNIQUES = ("grid", "str+", "quadtree", "str", "hilbert")


def _rectangles(n, seed, side):
    return generate_rectangles(
        n, "uniform", seed=seed, space=SPACE, avg_side_fraction=side
    )


#: kind -> (left records, right records)
KINDS = {
    # Shapes spanning many cells: replication on every disjoint side.
    "large": lambda: (_rectangles(110, 1, 0.15), _rectangles(110, 2, 0.15)),
    "points_x_rects": lambda: (
        generate_points(140, "uniform", seed=3, space=SPACE),
        _rectangles(90, 4, 0.12),
    ),
    # Float Feature rectangles: their blocks carry the columnar payload.
    "features": lambda: tuple(
        [Feature(r, {"id": i}) for i, r in enumerate(_rectangles(100, s, 0.1))]
        for s in (5, 6)
    ),
}


@pytest.fixture(scope="module", params=sorted(KINDS))
def systems(request, tmp_path_factory):
    """One workspace per kind, indexed with every technique, three ways:
    built here, reloaded from a saved workspace, and reloaded onto a
    two-worker pool."""
    left, right = KINDS[request.param]()
    built = SpatialHadoop(block_capacity=30)
    built.load("L", left)
    built.load("R", right)
    for technique in TECHNIQUES:
        built.index("L", f"L_{technique}", technique=technique)
        built.index("R", f"R_{technique}", technique=technique)
    path = tmp_path_factory.mktemp("join") / "ws.pkl"
    save_workspace(built, path)
    reloaded = load_workspace(path)
    pooled = load_workspace(path)
    pooled.runner.set_workers(2)
    yield brute_pairs(left, right), built, reloaded, pooled
    pooled.runner.close()


def assert_indistinguishable(got, serial):
    """Same pairs in the same order, same counters: neither the backend
    nor a save/load may show."""
    assert [(repr(l), repr(r)) for l, r in got.answer] == [
        (repr(l), repr(r)) for l, r in serial.answer
    ]
    assert got.counters.as_dict() == serial.counters.as_dict()


@pytest.mark.parametrize("right_tech", TECHNIQUES)
@pytest.mark.parametrize("left_tech", TECHNIQUES)
def test_distributed_join_every_ordered_pair(systems, left_tech, right_tech):
    want, built, reloaded, pooled = systems
    names = (f"L_{left_tech}", f"R_{right_tech}")
    serial = built.spatial_join(*names)
    assert canon(serial.answer) == want
    for other in (reloaded, pooled):
        assert_indistinguishable(other.spatial_join(*names), serial)
    assert pooled.runner.executor.fallbacks == 0


def test_sjmr_every_kind(systems):
    want, built, reloaded, pooled = systems
    serial = built.spatial_join("L", "R")
    assert canon(serial.answer) == want
    for other in (reloaded, pooled):
        assert_indistinguishable(other.spatial_join("L", "R"), serial)
    assert pooled.runner.executor.fallbacks == 0
