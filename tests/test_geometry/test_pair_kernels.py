"""Property tests: pair kernels == NumPy brute force, on both backends.

``join_rows``, ``pairs_owned``, ``knn_rows`` and ``closest_pair_rows``
run as the NumPy kernels on NumPy columns and as the ``array('d')``
loops they replaced (``tests/oracles/scalar_kernels.py``) on
``array('d')`` columns; both must agree with a brute force written here
over every pair of rows, and with each other. Small integer grids make
the hard cases common: touching edges and corners (closed intervals),
zero-area rectangles and points, exact duplicates, all-equal ``x1``,
collinear points and distance ties. A tiny element budget, passed
through the kernel's own argument, forces the tiling and must change no
answer.
"""

import math
from array import array

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.geometry import Rectangle, vectorized
from repro.geometry.vectorized import closest_pair_rows, join_rows, pairs_owned
from tests.oracles import scalar_kernels

#: The implementation that serves each column type.
BACKENDS = {"numpy": vectorized, "array": scalar_kernels}

grid = st.integers(0, 6).map(float)
unit = st.floats(0, 1, allow_nan=False, width=32)


@st.composite
def rects(draw, coord=grid, span=st.sampled_from([0.0, 0.0, 1.0, 2.0])):
    x1, y1 = draw(coord), draw(coord)
    return (x1, y1, x1 + draw(span), y1 + draw(span))


rect_lists = st.one_of(
    st.lists(rects(), max_size=25),
    st.lists(rects(unit, st.floats(0, 0.25, width=32)), max_size=25),
    # All rows start at the same x: one sweep window holds everything.
    st.lists(rects(st.just(3.0)), max_size=12),
)
point_lists = st.one_of(
    st.lists(st.tuples(grid, grid), max_size=30),
    st.lists(st.tuples(unit, unit), max_size=30),
    st.lists(st.tuples(st.just(2.0), unit), max_size=30),  # one vertical line
    st.lists(grid.map(lambda v: (v, 2 * v + 1)), max_size=30),  # collinear
)


def columns(rows, width, backend):
    cols = list(zip(*rows)) if rows else [()] * width
    if backend == "numpy":
        return tuple(np.array(col, dtype=float) for col in cols)
    return tuple(array("d", col) for col in cols)


def pairs_of(li, ri):
    return list(zip(map(int, li), map(int, ri)))


def brute_join(left, right):
    if not left or not right:
        return []
    lx1, ly1, lx2, ly2 = (c[:, None] for c in columns(left, 4, "numpy"))
    rx1, ry1, rx2, ry2 = (c[None, :] for c in columns(right, 4, "numpy"))
    hit = (lx1 <= rx2) & (rx1 <= lx2) & (ly1 <= ry2) & (ry1 <= ly2)
    return pairs_of(*np.nonzero(hit))  # row-major: ascending (left, right)


class TestJoinRows:
    @given(rect_lists, rect_lists)
    @settings(max_examples=150, deadline=None)
    def test_matches_bruteforce_on_both_backends(self, left, right):
        want = brute_join(left, right)
        for backend, kernels in BACKENDS.items():
            got = kernels.join_rows(
                columns(left, 4, backend), columns(right, 4, backend)
            )
            assert pairs_of(*got) == want, backend

    @given(rect_lists, rect_lists, st.integers(1, 9))
    @settings(max_examples=80, deadline=None)
    def test_tiling_changes_nothing(self, left, right, budget):
        got = join_rows(
            columns(left, 4, "numpy"), columns(right, 4, "numpy"), budget
        )
        assert pairs_of(*got) == brute_join(left, right)

    def test_touching_edges_and_corners_join(self):
        left = [(0.0, 0.0, 1.0, 1.0)]
        right = [
            (1.0, 0.0, 2.0, 1.0),   # shares an edge
            (1.0, 1.0, 2.0, 2.0),   # shares a corner
            (1.0, 1.0, 1.0, 1.0),   # a point on the corner
            (1.5, 0.0, 2.0, 1.0),   # apart
        ]
        for backend, kernels in BACKENDS.items():
            got = kernels.join_rows(
                columns(left, 4, backend), columns(right, 4, backend)
            )
            assert pairs_of(*got) == [(0, 0), (0, 1), (0, 2)]


class TestPairsOwned:
    CELL = Rectangle(2.0, 2.0, 5.0, 4.0)

    @given(rect_lists, rect_lists)
    @settings(max_examples=100, deadline=None)
    def test_reference_point_in_half_open_cell(self, left, right):
        joined = brute_join(left, right)
        cell = self.CELL
        want = [
            (i, j) for i, j in joined
            if cell.x1 <= max(left[i][0], right[j][0]) < cell.x2
            and cell.y1 <= max(left[i][1], right[j][1]) < cell.y2
        ]
        for backend, kernels in BACKENDS.items():
            lcols = columns(left, 4, backend)
            rcols = columns(right, 4, backend)
            got = kernels.pairs_owned(
                lcols, rcols, *kernels.join_rows(lcols, rcols), cell
            )
            assert pairs_of(*got) == want, backend

    @given(rect_lists, rect_lists)
    @settings(max_examples=50, deadline=None)
    def test_a_tiling_owns_every_pair_once(self, left, right):
        """Half-open cells that tile the space split the join exactly."""
        lcols, rcols = columns(left, 4, "numpy"), columns(right, 4, "numpy")
        li, ri = join_rows(lcols, rcols)
        owned = []
        for x in (0.0, 4.0):
            for y in (0.0, 4.0):
                cell = Rectangle(x, y, x + 4.0, y + 4.0)
                owned += pairs_of(*pairs_owned(lcols, rcols, li, ri, cell))
        assert sorted(owned) == pairs_of(li, ri)


def gaps(rect, x, y):
    return max(rect[0] - x, 0.0, x - rect[2]), max(rect[1] - y, 0.0, y - rect[3])


def gap_sq(rect, x, y):
    dx, dy = gaps(rect, x, y)
    return dx * dx + dy * dy


@st.composite
def knn_cases(draw):
    cells = draw(st.lists(
        st.one_of(
            st.lists(rects(), min_size=1, max_size=12),
            st.lists(st.tuples(grid, grid).map(lambda p: p + p),
                     min_size=1, max_size=12),
        ),
        min_size=1, max_size=4,
    ))
    queries = draw(st.lists(st.tuples(grid, grid), min_size=1, max_size=8))
    return cells, queries, draw(st.sampled_from([1, 2, 3, 50]))


def run_knn(cells, queries, k, backend, **kwargs):
    bounds = [
        (min(r[0] for r in rows), min(r[1] for r in rows),
         max(r[2] for r in rows), max(r[3] for r in rows))
        for rows in cells
    ]
    qx, qy = columns(queries, 2, backend)
    cell_columns = []
    for rows in cells:
        x1, y1, x2, y2 = columns(rows, 4, backend)
        if all(r[:2] == r[2:] for r in rows):
            # A cell of points hands out aliased columns, as a point
            # payload's ``mbr_columns`` does.
            x2, y2 = x1, y1
        cell_columns.append((x1, y1, x2, y2))
    return BACKENDS[backend].knn_rows(
        qx, qy, columns(bounds, 4, backend), cell_columns, k, **kwargs
    )


class TestKnnRows:
    @given(knn_cases())
    @settings(max_examples=150, deadline=None)
    def test_distances_match_bruteforce(self, case):
        cells, queries, k = case
        rows, distances, visits = run_knn(cells, queries, k, "numpy")
        everything = [rect for cell in cells for rect in cell]
        for (x, y), found, found_distances in zip(queries, rows, distances):
            assert len(set(found)) == len(found)
            # Ties at the k-th distance may pick either row; the
            # squared distances, nearest first, are what is fixed.
            assert [gap_sq(everything[r], x, y) for r in found] == sorted(
                gap_sq(rect, x, y) for rect in everything
            )[:k]
            assert found_distances == [
                math.hypot(*gaps(everything[r], x, y)) for r in found
            ]
        # Every query visits its nearest cell; none is visited by more
        # queries than there are.
        assert sum(visits) >= len(queries)
        assert max(visits) <= len(queries)

    @given(knn_cases(), st.integers(1, 6))
    @settings(max_examples=120, deadline=None)
    def test_backends_and_tilings_agree_exactly(self, case, budget):
        cells, queries, k = case
        want = run_knn(cells, queries, k, "numpy")
        assert run_knn(cells, queries, k, "array") == want
        assert run_knn(cells, queries, k, "numpy", budget=budget) == want

    def test_equal_distances_keep_the_earlier_visit_then_the_lower_row(self):
        # Four S points at distance 1 from the query, two per cell; the
        # query sits inside cell 0, so cell 0 is visited first.
        cells = [
            [(1.0, 0.0, 1.0, 0.0), (0.0, 1.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0)],
            [(-1.0, 0.0, -1.0, 0.0), (0.0, -1.0, 0.0, -1.0)],
        ]
        for backend in ("numpy", "array"):
            rows, distances, visits = run_knn(cells, [(0.0, 0.0)], 3, backend)
            assert rows == [[2, 0, 1]]
            assert distances == [[0.0, 1.0, 1.0]]
            # Cell 1 is as near as the third find, so it was still read.
            assert visits == [1, 1]

    def test_stops_before_cells_beyond_the_kth_neighbour(self):
        cells = [
            [(0.0, 0.0, 0.0, 0.0), (1.0, 0.0, 1.0, 0.0)],
            [(10.0, 0.0, 10.0, 0.0), (11.0, 0.0, 11.0, 0.0)],
        ]
        for backend in ("numpy", "array"):
            rows, _, visits = run_knn(
                cells, [(0.0, 0.0), (10.5, 0.0)], 2, backend
            )
            assert rows == [[0, 1], [2, 3]]  # S rows number across cells
            assert visits == [1, 1]
            *_, visits = run_knn(cells, [(0.0, 0.0)], 3, backend)
            assert visits == [1, 1]


    def test_cells_without_rows(self):
        bounds = [(0.0, 0.0, 1.0, 1.0), (5.0, 5.0, 6.0, 6.0)]
        for backend, kernels in BACKENDS.items():
            qx, qy = columns([(0.5, 0.5), (9.0, 9.0)], 2, backend)
            rows, distances, visits = kernels.knn_rows(
                qx, qy, columns(bounds, 4, backend),
                [columns([], 4, backend), columns([(5.0, 5.0, 5.0, 6.0)], 4, backend)],
                2,
            )
            assert rows == [[0], [0]]
            assert distances == [[math.hypot(4.5, 4.5)], [math.hypot(4.0, 3.0)]]
            assert visits == [2, 2]  # never k found: every cell is read
            rows, distances, visits = kernels.knn_rows(
                qx, qy, columns(bounds[:1], 4, backend),
                [columns([], 4, backend)], 2,
            )
            assert (rows, distances, visits) == ([[], []], [[], []], [2])


def dsq(points, pair):
    (ax, ay), (bx, by) = points[pair[0]], points[pair[1]]
    return (ax - bx) ** 2 + (ay - by) ** 2


class TestClosestPairRows:
    @given(point_lists)
    @settings(max_examples=200, deadline=None)
    def test_matches_bruteforce_on_both_backends(self, points):
        n = len(points)
        for backend, kernels in BACKENDS.items():
            got = kernels.closest_pair_rows(*columns(points, 2, backend))
            if n < 2:
                assert got is None
                continue
            want = min(
                dsq(points, (i, j)) for i in range(n) for j in range(i + 1, n)
            )
            assert got[0] != got[1]
            assert dsq(points, got) == want, backend

    def test_equal_x_takes_the_bounded_path(self):
        """A vertical line keeps every x-gap at 0: the sweep hands over
        to the divide and conquer instead of running n shifts."""
        rng = np.random.default_rng(3)
        ys = rng.permutation(4000).astype(float)
        ys[17] = ys[2900] + 0.25  # the closest pair, far apart in row order
        got = closest_pair_rows(np.full(4000, 7.0), ys)
        assert sorted(got) == [17, 2900]

    def test_duplicates_are_distance_zero(self):
        points = [(3.0, 1.0), (0.0, 0.0), (5.0, 5.0), (3.0, 1.0)]
        for backend, kernels in BACKENDS.items():
            got = kernels.closest_pair_rows(*columns(points, 2, backend))
            assert sorted(got) == [0, 3]


class TestPointsNearBoundary:
    @given(point_lists, st.floats(0, 3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_rule_on_both_backends(self, points, delta):
        cell = Rectangle(1.0, 1.0, 5.0, 4.0)
        want = [
            i for i, (x, y) in enumerate(points)
            if x - cell.x1 < delta or cell.x2 - x < delta
            or y - cell.y1 < delta or cell.y2 - y < delta
        ]
        for backend, kernels in BACKENDS.items():
            xs, ys = columns(points, 2, backend)
            assert kernels.points_near_boundary(xs, ys, cell, delta) == want
