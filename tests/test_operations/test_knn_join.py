"""kNN join correctness against brute force."""

import math

import pytest

from repro import Feature
from repro.datagen import generate_points, generate_rectangles
from repro.geometry import Rectangle
from repro.index import build_index
from repro.mapreduce.storage import BlockUnavailableError
from repro.operations import knn_join_hadoop, knn_join_spatial
from tests.oracles.scalar_knn_join import scalar_knn_join

SPACE = Rectangle(0, 0, 1000, 1000)


def brute_distances(query, s_records, k):
    return sorted(query.distance(s) for s in s_records)[:k]


def check(result, left, right, k):
    rows = {r: nb for r, nb in result.answer}
    assert set(rows) == set(left)
    for q in left:
        got = [d for d, _ in rows[q]]
        expected = brute_distances(q, right, k)
        assert len(got) == len(expected)
        for a, b in zip(got, expected):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


@pytest.mark.parametrize("technique", ["grid", "str", "quadtree"])
@pytest.mark.parametrize("k", [1, 4])
class TestSpatialKnnJoin:
    def test_matches_bruteforce(self, runner, technique, k):
        left = generate_points(250, "uniform", seed=1, space=SPACE)
        right = generate_points(400, "uniform", seed=2, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        build_index(runner, "L", "Li", technique)
        build_index(runner, "S", "Si", technique)
        check(knn_join_spatial(runner, "Li", "Si", k), left, right, k)

    def test_skewed_right_side(self, runner, technique, k):
        left = generate_points(150, "uniform", seed=3, space=SPACE)
        right = generate_points(300, "gaussian", seed=4, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        build_index(runner, "L", "Li", technique)
        build_index(runner, "S", "Si", technique)
        check(knn_join_spatial(runner, "Li", "Si", k), left, right, k)


@pytest.mark.parametrize("s_technique", ["grid", "str", "quadtree"])
@pytest.mark.parametrize("k", [1, 3, 700])
class TestAgainstScalarOracle:
    """The batch kernel reproduces the per-record loop it replaced: the
    same neighbours with the same distances in the same order, and the
    same S-block traffic."""

    def assert_same(self, runner, k):
        result = knn_join_spatial(runner, "Li", "Si", k)
        rows, s_blocks, s_block_reads = scalar_knn_join(
            runner.fs, "Li", "Si", k
        )
        assert result.answer == rows
        assert result.counters["KNN_JOIN_S_BLOCKS"] == s_blocks
        assert result.counters["KNN_JOIN_S_BLOCK_READS"] == s_block_reads

    def test_points(self, runner, s_technique, k):
        runner.fs.create_file(
            "L", generate_points(200, "uniform", seed=11, space=SPACE)
        )
        runner.fs.create_file(
            "S", generate_points(600, "gaussian", seed=12, space=SPACE)
        )
        build_index(runner, "L", "Li", "grid")
        build_index(runner, "S", "Si", s_technique)
        self.assert_same(runner, k)

    def test_feature_points_against_rectangles(self, runner, s_technique, k):
        """R may wrap its points in features; S may hold any shapes.
        Small rectangles keep distance ties (two at distance 0) out, so
        the oracle's tie order does not matter."""
        runner.fs.create_file("L", [
            Feature(p, {"id": i}) for i, p in enumerate(
                generate_points(150, "uniform", seed=13, space=SPACE))
        ])
        runner.fs.create_file("S", generate_rectangles(
            500, "uniform", seed=14, space=SPACE, avg_side_fraction=0.004
        ))
        build_index(runner, "L", "Li", "str")
        build_index(runner, "S", "Si", s_technique)
        self.assert_same(runner, k)


class TestKnnJoinDetails:
    def test_hadoop_baseline_matches(self, runner):
        left = generate_points(100, "uniform", seed=5, space=SPACE)
        right = generate_points(200, "uniform", seed=6, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        check(knn_join_hadoop(runner, "L", "S", 3), left, right, 3)

    def test_hadoop_baseline_against_empty_s(self, runner):
        left = generate_points(20, "uniform", seed=5, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", [])
        result = knn_join_hadoop(runner, "L", "S", 3)
        assert result.answer == [(p, []) for p in left]

    def test_requires_indexes(self, runner):
        runner.fs.create_file("L", generate_points(10, seed=0))
        runner.fs.create_file("S", generate_points(10, seed=1))
        with pytest.raises(ValueError, match="indexed"):
            knn_join_spatial(runner, "L", "S", 2)

    def test_invalid_k(self, runner):
        runner.fs.create_file("L", generate_points(10, seed=0))
        runner.fs.create_file("S", generate_points(10, seed=1))
        with pytest.raises(ValueError, match="positive"):
            knn_join_hadoop(runner, "L", "S", 0)

    def test_k_exceeds_right_size(self, runner):
        left = generate_points(30, "uniform", seed=7, space=SPACE)
        right = generate_points(5, "uniform", seed=8, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        build_index(runner, "L", "Li", "grid")
        build_index(runner, "S", "Si", "grid")
        result = knn_join_spatial(runner, "Li", "Si", 10)
        for _r, neighbors in result.answer:
            assert len(neighbors) == 5

    def test_rejects_extended_left_records(self, runner):
        runner.fs.create_file("L", generate_rectangles(40, seed=2, space=SPACE))
        runner.fs.create_file("S", generate_points(40, seed=3, space=SPACE))
        build_index(runner, "L", "Li", "str")
        build_index(runner, "S", "Si", "str")
        with pytest.raises(TypeError, match="points only"):
            knn_join_spatial(runner, "Li", "Si", 2)

    def test_s_block_with_no_healthy_replica_fails_typed(self, runner):
        """S is read by the driver, outside any split: still checksummed."""
        runner.fs.create_file("L", generate_points(60, seed=4, space=SPACE))
        runner.fs.create_file("S", generate_points(300, seed=5, space=SPACE))
        build_index(runner, "L", "Li", "grid")
        build_index(runner, "S", "Si", "grid")
        block = runner.fs.get("Si").blocks[0]
        for replica in range(len(block.replicas)):
            runner.fs.storage.corrupt_replica(block, replica)
        with pytest.raises(BlockUnavailableError):
            knn_join_spatial(runner, "Li", "Si", 2)

    def test_prunes_s_blocks(self, runner):
        left = generate_points(300, "uniform", seed=9, space=SPACE)
        right = generate_points(1200, "uniform", seed=10, space=SPACE)
        runner.fs.create_file("L", left)
        runner.fs.create_file("S", right)
        build_index(runner, "L", "Li", "grid")
        build_index(runner, "S", "Si", "grid")
        result = knn_join_spatial(runner, "Li", "Si", 2)
        touched = result.counters["KNN_JOIN_S_BLOCKS"]
        all_pairs = runner.fs.num_blocks("Li") * runner.fs.num_blocks("Si")
        assert touched < all_pairs
