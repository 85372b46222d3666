"""Tests for the packed-array STR R-tree (the local index)."""

import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rectangle
from repro.index import RTree
from repro.index.rtree import mbr_columns, str_order
from tests.oracles import scalar_kernels

# A coarse lattice forces duplicates, shared coordinates and exact ties.
lattice = st.integers(-20, 20).map(float)
coords = st.one_of(
    lattice, st.floats(-1000, 1000, allow_nan=False, allow_infinity=False)
)
points = st.builds(Point, coords, coords)
extents = st.one_of(st.just(0.0), st.floats(0, 50, allow_nan=False))
rects = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    coords, coords, extents, extents,
)
windows = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    coords, coords, extents, st.floats(0, 500, allow_nan=False),
)
capacities = st.sampled_from([2, 3, 8, 32])


def tree_of(shapes, capacity=8):
    return RTree.from_shapes(shapes, node_capacity=capacity)


def packed_tree(shapes, capacity):
    """The tree the index build makes: rows stored in packed order.

    Returns the tree and the shapes in row order.
    """
    cols = mbr_columns(shapes)
    order = str_order(*cols, capacity)
    cols = [col[order] for col in cols]
    shapes = [shapes[i] for i in order.tolist()]
    return RTree.from_columns(*cols, node_capacity=capacity), shapes


def brute_columns(shapes):
    m = np.array([[s.mbr.x1, s.mbr.y1, s.mbr.x2, s.mbr.y2] for s in shapes])
    return m.reshape(-1, 4).T


def brute_search(shapes, q):
    x1, y1, x2, y2 = brute_columns(shapes)
    mask = (x1 <= q.x2) & (x2 >= q.x1) & (y1 <= q.y2) & (y2 >= q.y1)
    return np.flatnonzero(mask).tolist()


def brute_knn(shapes, p, k):
    x1, y1, x2, y2 = brute_columns(shapes)
    dx = np.maximum(np.maximum(x1 - p.x, 0.0), p.x - x2)
    dy = np.maximum(np.maximum(y1 - p.y, 0.0), p.y - y2)
    dsq = dx * dx + dy * dy
    return np.lexsort((np.arange(len(shapes)), dsq))[:k].tolist()


class TestConstruction:
    def test_empty(self):
        t = tree_of([])
        assert len(t) == 0
        assert t.mbr is None
        assert t.search(Rectangle(0, 0, 1, 1)) == []
        assert t.knn(Point(0, 0), 3) == []

    def test_single(self):
        t = tree_of([Point(1, 2)])
        assert len(t) == 1
        assert t.mbr == Rectangle(1, 2, 1, 2)
        assert t.search(Rectangle(0, 0, 5, 5)) == [0]
        assert t.knn(Point(0, 0), 4) == [(math.hypot(1, 2), 0)]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            tree_of([], capacity=1)

    def test_every_leaf_bounds_its_run_of_rows(self):
        random.seed(3)
        shapes = [
            Rectangle(x, y, x + random.random(), y + random.random())
            for x, y in ((random.random(), random.random()) for _ in range(301))
        ]
        t, _ = packed_tree(shapes, 4)
        x1, y1, x2, y2 = t.columns
        assert len(t.leaves[0]) == 76  # 75 full leaves and one short
        for j in range(76):
            run = slice(4 * j, 4 * j + 4)
            assert t.leaves[0][j] == x1[run].min()
            assert t.leaves[1][j] == y1[run].min()
            assert t.leaves[2][j] == x2[run].max()
            assert t.leaves[3][j] == y2[run].max()
        assert t.mbr == Rectangle.from_shapes(shapes)

    def test_leaves_are_contiguous_runs_of_an_str_tiling(self):
        random.seed(4)
        pts = [Point(random.random(), random.random()) for _ in range(640)]
        t, ordered = packed_tree(pts, 16)
        # 40 leaves in 7 vertical slices of 6 leaves: slices are ordered
        # by x, rows of one slice by y.
        per_slice = 6 * 16
        slices = [ordered[s:s + per_slice] for s in range(0, 640, per_slice)]
        for left, right in zip(slices, slices[1:]):
            assert max(p.x for p in left) <= min(p.x for p in right)
        for rows in slices:
            assert [p.y for p in rows] == sorted(p.y for p in rows)

    @given(st.lists(st.one_of(points, rects), max_size=120), capacities)
    @settings(max_examples=50, deadline=None)
    def test_packing_order_is_the_same_on_both_backends(self, shapes, capacity):
        """NumPy packing == the ``array('d')`` loop it replaced."""
        cols = mbr_columns(shapes)
        plain = [array("d", col.tolist()) for col in cols]
        assert str_order(*cols, capacity).tolist() == scalar_kernels.str_order(
            *plain, capacity
        )


class TestSearch:
    def test_search_everything_and_nothing(self):
        pts = [Point(float(i), 0.0) for i in range(50)]
        t = tree_of(pts)
        assert t.search(Rectangle(-1, -1, 51, 1)) == list(range(50))
        assert t.search(Rectangle(100, 100, 200, 200)) == []

    def test_search_rect_records(self):
        rs = [Rectangle(i, i, i + 2.0, i + 2.0) for i in range(10)]
        assert tree_of(rs).search(Rectangle(3.5, 3.5, 4.5, 4.5)) == [2, 3, 4]

    @given(st.lists(st.one_of(points, rects), max_size=150), windows,
           capacities)
    @settings(max_examples=150, deadline=None)
    def test_search_equals_bruteforce(self, shapes, q, capacity):
        t, ordered = packed_tree(shapes, capacity)
        assert t.search(q) == brute_search(ordered, q)

    @given(st.lists(rects, min_size=1, max_size=80), windows, windows,
           capacities)
    @settings(max_examples=100, deadline=None)
    def test_owner_filters_by_reference_point(
        self, shapes, q, cell, capacity
    ):
        t, ordered = packed_tree(shapes, capacity)
        want = [
            i
            for i in brute_search(ordered, q)
            if cell.contains_point_left_inclusive(
                Point(max(ordered[i].x1, q.x1), max(ordered[i].y1, q.y1))
            )
        ]
        assert t.search(q, cell) == want

    @given(st.lists(points, max_size=100), windows)
    @settings(max_examples=50, deadline=None)
    def test_from_shapes_answers_in_input_positions(self, pts, q):
        assert tree_of(pts).search(q) == brute_search(pts, q)


class TestKnn:
    def test_k_must_be_positive(self):
        with pytest.raises(ValueError):
            tree_of([Point(0, 0)]).knn(Point(0, 0), 0)

    def test_simple(self):
        pts = [Point(0, 0), Point(5, 0), Point(1, 1), Point(10, 10)]
        result = tree_of(pts).knn(Point(0.4, 0.4), 2)
        assert [pts[row] for _, row in result] == [Point(0, 0), Point(1, 1)]

    @given(st.lists(st.one_of(points, rects), min_size=1, max_size=150),
           points, st.integers(1, 200), capacities)
    @settings(max_examples=150, deadline=None)
    def test_knn_equals_bruteforce(self, shapes, p, k, capacity):
        t, ordered = packed_tree(shapes, capacity)
        result = t.knn(p, k)
        # Ranked by (squared distance, row), so ties are decided too.
        assert [row for _, row in result] == brute_knn(ordered, p, k)
        assert len(result) == min(k, len(shapes))
        for d, row in result:
            assert d == ordered[row].mbr.min_distance_point(p)

    @given(st.lists(points, min_size=1, max_size=100), points,
           st.integers(1, 10))
    @settings(max_examples=50, deadline=None)
    def test_from_shapes_finds_the_nearest_distances(self, pts, p, k):
        result = tree_of(pts).knn(p, k)
        got = [d for d, _ in result]
        assert got == [p.distance(pts[row]) for _, row in result]
        # Rows rank by *squared* distance, whose rounding (underflow,
        # say) may tie two rows whose true distances differ in the last
        # place: compare the distances with a tolerance.
        want = sorted(p.distance(q) for q in pts)[:k]
        assert len(got) == len(want)
        for a, b in zip(got, want):
            assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)
