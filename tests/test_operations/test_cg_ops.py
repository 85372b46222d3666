"""Skyline, convex hull, closest pair, farthest pair in MapReduce."""

import math

import pytest

from repro.datagen import generate_points
from repro.geometry import Point, Rectangle
from repro.geometry.algorithms.closest_pair import closest_pair_bruteforce
from repro.geometry.algorithms.convex_hull import convex_hull
from repro.geometry.algorithms.farthest_pair import farthest_pair_bruteforce
from repro.geometry.algorithms.skyline import skyline
from repro.index import PARTITIONERS, build_index
from repro.operations import (
    closest_pair_spatial,
    convex_hull_hadoop,
    convex_hull_spatial,
    farthest_pair_hadoop,
    farthest_pair_spatial,
    skyline_hadoop,
    skyline_output_sensitive,
    skyline_spatial,
)

SPACE = Rectangle(0, 0, 1000, 1000)
DISJOINT = sorted(n for n, c in PARTITIONERS.items() if c.disjoint)
DISTRIBUTIONS = ["uniform", "gaussian", "correlated", "anti_correlated"]


def load_indexed(runner, technique, distribution="uniform", n=900, seed=1):
    pts = generate_points(n, distribution, seed=seed, space=SPACE)
    runner.fs.create_file("pts", pts)
    build_index(runner, "pts", "idx", technique)
    return pts


class TestSkyline:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_hadoop_matches(self, runner, distribution):
        pts = generate_points(800, distribution, seed=2, space=SPACE)
        runner.fs.create_file("pts", pts)
        assert skyline_hadoop(runner, "pts").answer == skyline(pts)

    @pytest.mark.parametrize("technique", sorted(PARTITIONERS))
    def test_spatial_matches(self, runner, technique):
        pts = load_indexed(runner, technique)
        assert skyline_spatial(runner, "idx").answer == skyline(pts)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_spatial_all_distributions(self, runner, distribution):
        pts = load_indexed(runner, "str", distribution, seed=3)
        assert skyline_spatial(runner, "idx").answer == skyline(pts)

    def test_filter_prunes_blocks(self, runner):
        pts = load_indexed(runner, "str", n=2000, seed=4)
        result = skyline_spatial(runner, "idx")
        assert result.blocks_read < runner.fs.num_blocks("idx")

    def test_prune_ablation_same_answer(self, runner):
        load_indexed(runner, "grid", seed=5)
        pruned = skyline_spatial(runner, "idx", prune=True)
        full = skyline_spatial(runner, "idx", prune=False)
        assert pruned.answer == full.answer
        assert pruned.blocks_read <= full.blocks_read

    @pytest.mark.parametrize("technique", DISJOINT)
    def test_output_sensitive_matches(self, runner, technique):
        pts = load_indexed(runner, technique, seed=6)
        result = skyline_output_sensitive(runner, "idx")
        assert result.answer == skyline(pts)

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_output_sensitive_distributions(self, runner, distribution):
        pts = load_indexed(runner, "quadtree", distribution, seed=7)
        result = skyline_output_sensitive(runner, "idx")
        assert result.answer == skyline(pts)

    def test_output_sensitive_is_map_only(self, runner):
        load_indexed(runner, "grid", seed=8)
        result = skyline_output_sensitive(runner, "idx")
        assert result.counters["REDUCE_TASKS"] == 0

    def test_output_sensitive_needs_disjoint(self, runner):
        load_indexed(runner, "str", seed=9)
        with pytest.raises(ValueError, match="disjoint"):
            skyline_output_sensitive(runner, "idx")


class TestConvexHull:
    @pytest.mark.parametrize("distribution", DISTRIBUTIONS + ["circular"])
    def test_hadoop_matches(self, runner, distribution):
        pts = generate_points(800, distribution, seed=10, space=SPACE)
        runner.fs.create_file("pts", pts)
        assert convex_hull_hadoop(runner, "pts").answer == convex_hull(pts)

    @pytest.mark.parametrize("technique", sorted(PARTITIONERS))
    def test_spatial_matches(self, runner, technique):
        pts = load_indexed(runner, technique, seed=11)
        assert convex_hull_spatial(runner, "idx").answer == convex_hull(pts)

    def test_filter_prunes_interior_blocks(self, runner):
        pts = load_indexed(runner, "grid", n=3000, seed=12)
        result = convex_hull_spatial(runner, "idx")
        assert result.blocks_read < runner.fs.num_blocks("idx")
        assert result.answer == convex_hull(pts)

    def test_circular_worst_case(self, runner):
        pts = load_indexed(runner, "str", "circular", n=1500, seed=13)
        assert convex_hull_spatial(runner, "idx").answer == convex_hull(pts)

    def test_prune_ablation(self, runner):
        load_indexed(runner, "kdtree", seed=14)
        assert (
            convex_hull_spatial(runner, "idx", prune=True).answer
            == convex_hull_spatial(runner, "idx", prune=False).answer
        )


class TestClosestPair:
    @pytest.mark.parametrize("technique", DISJOINT)
    def test_matches_bruteforce(self, runner, technique):
        pts = load_indexed(runner, technique, n=700, seed=15)
        result = closest_pair_spatial(runner, "idx")
        expected = closest_pair_bruteforce(pts)
        assert math.isclose(
            result.answer[0].distance(result.answer[1]),
            expected[0].distance(expected[1]),
            rel_tol=1e-9,
        )

    @pytest.mark.parametrize("distribution", DISTRIBUTIONS)
    def test_distributions(self, runner, distribution):
        pts = load_indexed(runner, "quadtree", distribution, n=800, seed=16)
        result = closest_pair_spatial(runner, "idx")
        expected = closest_pair_bruteforce(pts)
        assert math.isclose(
            result.answer[0].distance(result.answer[1]),
            expected[0].distance(expected[1]),
            rel_tol=1e-9,
        )

    def test_pruning_shrinks_shuffle(self, runner):
        load_indexed(runner, "grid", n=3000, seed=17)
        result = closest_pair_spatial(runner, "idx")
        # One pair of coordinate columns per block crosses the shuffle,
        # holding only the boundary candidates: a small fraction of the
        # input's 16 bytes per point.
        assert result.counters["SHUFFLE_RECORDS"] == result.blocks_read
        assert result.counters["SHUFFLE_BYTES"] < 3000 * 16 / 2

    def test_feature_wrapped_points(self, runner):
        from repro import Feature

        pts = generate_points(500, "gaussian", seed=23, space=SPACE)
        runner.fs.create_file(
            "pts", [Feature(p, {"id": i}) for i, p in enumerate(pts)]
        )
        build_index(runner, "pts", "idx", "kdtree")
        result = closest_pair_spatial(runner, "idx")
        expected = closest_pair_bruteforce(pts)
        assert result.answer[0].distance_sq(result.answer[1]) == (
            expected[0].distance_sq(expected[1])
        )

    def test_rejects_extended_shapes(self, runner):
        from repro.datagen import generate_rectangles

        runner.fs.create_file(
            "rects", generate_rectangles(200, seed=24, space=SPACE)
        )
        build_index(runner, "rects", "idx", "grid")
        with pytest.raises(TypeError, match="points only"):
            closest_pair_spatial(runner, "idx")

    def test_needs_disjoint_index(self, runner):
        load_indexed(runner, "str", seed=18)
        with pytest.raises(ValueError, match="disjoint"):
            closest_pair_spatial(runner, "idx")

    def test_cross_partition_pair_found(self, runner):
        # Two points straddling the middle of the space end up in different
        # grid cells but still form the closest pair.
        pts = generate_points(400, "uniform", seed=19, space=SPACE)
        pts += [Point(499.999, 500.0), Point(500.001, 500.0)]
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "grid")
        result = closest_pair_spatial(runner, "idx")
        assert result.answer[0].distance(result.answer[1]) == pytest.approx(
            0.002, rel=1e-6
        )


class TestFarthestPair:
    def _dist(self, pair):
        return pair[0].distance(pair[1])

    @pytest.mark.parametrize("distribution", ["uniform", "gaussian", "circular"])
    def test_hadoop_matches(self, runner, distribution):
        pts = generate_points(700, distribution, seed=20, space=SPACE)
        runner.fs.create_file("pts", pts)
        result = farthest_pair_hadoop(runner, "pts")
        expected = farthest_pair_bruteforce(pts)
        assert math.isclose(self._dist(result.answer), self._dist(expected))

    @pytest.mark.parametrize("technique", sorted(PARTITIONERS))
    def test_spatial_matches(self, runner, technique):
        pts = load_indexed(runner, technique, n=800, seed=21)
        result = farthest_pair_spatial(runner, "idx")
        expected = farthest_pair_bruteforce(pts)
        assert math.isclose(self._dist(result.answer), self._dist(expected))

    def test_circular_worst_case(self, runner):
        pts = load_indexed(runner, "grid", "circular", n=1200, seed=22)
        result = farthest_pair_spatial(runner, "idx")
        expected = farthest_pair_bruteforce(pts)
        assert math.isclose(self._dist(result.answer), self._dist(expected))

    def test_pair_filter_prunes(self, runner):
        load_indexed(runner, "grid", n=3000, seed=23)
        result = farthest_pair_spatial(runner, "idx")
        n_cells = runner.fs.num_blocks("idx")
        all_pairs = n_cells * (n_cells + 1) // 2
        processed = result.counters["MAP_TASKS"]
        assert processed < all_pairs
