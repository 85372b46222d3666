"""Property tests: batch kernels == scalar oracles, bit for bit.

Random inputs (stdlib ``random``, fixed seeds) plus the degenerate
shapes that break naive vectorization — empty inputs, a single point,
coordinates exactly on query boundaries, duplicate distances — are fed
to every kernel twice: once through the kernel under test and once
through a hand-written scalar loop mirroring the pre-vectorization code.
Results must match exactly (indices, order, ties).
"""

import random
from array import array

import numpy as np
import pytest

from repro.geometry import Point, Rectangle
from repro.geometry.vectorized import (
    point_distance_sq,
    points_in_rect,
    points_in_rect_owned,
    rect_min_distance_sq,
    rects_intersect,
    rects_intersect_owned,
    topk_by_distance,
)
from tests.oracles import scalar_kernels

RECT = Rectangle(0.25, 0.25, 0.75, 0.75)
CELL = Rectangle(0.0, 0.0, 0.5, 0.5)


def random_points(rng, n):
    # Snapping some coordinates onto the query boundary exercises the
    # closed-interval edges where `<` vs `<=` mistakes would hide.
    snaps = [0.25, 0.75, 0.0, 0.5]
    pts = []
    for _ in range(n):
        x = rng.choice(snaps) if rng.random() < 0.2 else rng.random()
        y = rng.choice(snaps) if rng.random() < 0.2 else rng.random()
        pts.append(Point(x, y))
    return pts

def random_rects(rng, n):
    rects = []
    for _ in range(n):
        x1, x2 = sorted((rng.random(), rng.random()))
        y1, y2 = sorted((rng.random(), rng.random()))
        if rng.random() < 0.15:  # degenerate: zero-area rectangle
            x2, y2 = x1, y1
        rects.append(Rectangle(x1, y1, x2, y2))
    return rects


def column(values):
    return np.array(list(values), dtype=np.float64)


def point_columns(pts):
    return column(p.x for p in pts), column(p.y for p in pts)


def rect_columns(rects):
    return (
        column(r.x1 for r in rects),
        column(r.y1 for r in rects),
        column(r.x2 for r in rects),
        column(r.y2 for r in rects),
    )


# ----------------------------------------------------------------------
# Scalar oracles: literal transcriptions of the pre-vectorization loops.
# ----------------------------------------------------------------------
def oracle_points_in_rect(pts, rect):
    return [
        i for i, p in enumerate(pts)
        if rect.x1 <= p.x <= rect.x2 and rect.y1 <= p.y <= rect.y2
    ]


def oracle_rects_intersect(rects, rect):
    return [i for i, r in enumerate(rects) if r.intersects(rect)]


def oracle_points_owned(pts, rect, cell):
    out = []
    for i, p in enumerate(pts):
        if not (rect.x1 <= p.x <= rect.x2 and rect.y1 <= p.y <= rect.y2):
            continue
        rx = max(p.x, rect.x1)
        ry = max(p.y, rect.y1)
        if cell.x1 <= rx < cell.x2 and cell.y1 <= ry < cell.y2:
            out.append(i)
    return out


def oracle_rects_owned(rects, rect, cell):
    out = []
    for i, r in enumerate(rects):
        if not r.intersects(rect):
            continue
        rx = max(r.x1, rect.x1)
        ry = max(r.y1, rect.y1)
        if cell.x1 <= rx < cell.x2 and cell.y1 <= ry < cell.y2:
            out.append(i)
    return out


def oracle_point_dsq(pts, q):
    out = []
    for p in pts:
        dx = p.x - q.x
        dy = p.y - q.y
        out.append(dx * dx + dy * dy)
    return out


def oracle_rect_dsq(rects, q):
    return [r.min_distance_sq_point(q) for r in rects]


def oracle_topk(dsq, k):
    return sorted(range(len(dsq)), key=lambda i: (dsq[i], i))[:k]


SEEDS = [0, 1, 2, 3, 4]


class TestPointKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 100, 1000])
    def test_points_in_rect_matches_oracle(self, seed, n):
        pts = random_points(random.Random(seed), n)
        xs, ys = point_columns(pts)
        assert points_in_rect(xs, ys, RECT) == oracle_points_in_rect(pts, RECT)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_points_owned_matches_oracle(self, seed):
        pts = random_points(random.Random(seed), 400)
        xs, ys = point_columns(pts)
        assert points_in_rect_owned(xs, ys, RECT, CELL) == oracle_points_owned(
            pts, RECT, CELL
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_point_distance_sq_bitwise(self, seed):
        pts = random_points(random.Random(seed), 300)
        xs, ys = point_columns(pts)
        q = Point(0.3, 0.6)
        got = list(point_distance_sq(xs, ys, q.x, q.y))
        want = oracle_point_dsq(pts, q)
        assert got == want  # exact float equality, not approx

    def test_boundary_points_are_inside(self):
        pts = [
            Point(RECT.x1, RECT.y1), Point(RECT.x2, RECT.y2),
            Point(RECT.x1, RECT.y2), Point(RECT.x2, 0.5),
        ]
        xs, ys = point_columns(pts)
        assert points_in_rect(xs, ys, RECT) == [0, 1, 2, 3]


class TestRectKernels:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("n", [0, 1, 2, 7, 200])
    def test_rects_intersect_matches_oracle(self, seed, n):
        rects = random_rects(random.Random(seed), n)
        cols = rect_columns(rects)
        assert rects_intersect(*cols, RECT) == oracle_rects_intersect(
            rects, RECT
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rects_owned_matches_oracle(self, seed):
        rects = random_rects(random.Random(seed), 300)
        cols = rect_columns(rects)
        assert rects_intersect_owned(*cols, RECT, CELL) == oracle_rects_owned(
            rects, RECT, CELL
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_rect_min_distance_sq_bitwise(self, seed):
        rects = random_rects(random.Random(seed), 300)
        cols = rect_columns(rects)
        q = Point(0.4, 0.9)
        got = list(rect_min_distance_sq(*cols, q.x, q.y))
        assert got == oracle_rect_dsq(rects, q)

    def test_touching_rects_intersect(self):
        # Sharing only an edge or a corner still counts (closed semantics).
        rects = [
            Rectangle(0.0, 0.0, 0.25, 0.25),   # corner contact
            Rectangle(0.75, 0.25, 1.0, 0.75),  # edge contact
            Rectangle(0.76, 0.0, 1.0, 1.0),    # disjoint by 0.01
        ]
        cols = rect_columns(rects)
        assert rects_intersect(*cols, RECT) == [0, 1]


class TestTopK:
    @pytest.mark.parametrize("seed", SEEDS)
    @pytest.mark.parametrize("k", [0, 1, 3, 10, 500])
    def test_matches_sorted_oracle(self, seed, k):
        rng = random.Random(seed)
        # Coarse quantization forces plenty of exact distance ties.
        dsq = [round(rng.random(), 2) for _ in range(200)]
        assert topk_by_distance(column(dsq), k) == oracle_topk(dsq, k)

    def test_all_equal_distances_break_ties_by_index(self):
        assert topk_by_distance(column([5.0] * 8), 3) == [0, 1, 2]


class TestBackendParity:
    """The NumPy kernels agree exactly with the ``array('d')`` loops they
    replaced (``tests/oracles/scalar_kernels.py``)."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_off_mode_equals_on_mode(self, seed):
        pts = random_points(random.Random(seed), 250)
        q = Point(0.5, 0.5)

        xs, ys = point_columns(pts)
        on_hits = points_in_rect(xs, ys, RECT)
        on_dsq = point_distance_sq(xs, ys, q.x, q.y).tolist()

        xs2, ys2 = array("d", xs.tolist()), array("d", ys.tolist())
        off_hits = scalar_kernels.points_in_rect(xs2, ys2, RECT)
        off_dsq = scalar_kernels.point_distance_sq(xs2, ys2, q.x, q.y)

        assert on_hits == off_hits
        assert on_dsq == off_dsq
