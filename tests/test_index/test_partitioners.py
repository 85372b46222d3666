"""Invariant tests for all seven partitioning techniques."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import generate_points, generate_rectangles
from repro.geometry import Point, Rectangle
from repro.index import PARTITIONERS
from repro.index.partitioners.space_curves import hilbert_value, z_value

SPACE = Rectangle(0, 0, 1000, 1000)

ALL = sorted(PARTITIONERS)
DISJOINT = sorted(
    name for name, cls in PARTITIONERS.items() if cls.disjoint
)
OVERLAPPING = sorted(
    name for name, cls in PARTITIONERS.items() if not cls.disjoint
)


def make(name, distribution="uniform", n_sample=400, num_cells=16, seed=0):
    sample = generate_points(n_sample, distribution, seed=seed, space=SPACE)
    return PARTITIONERS[name].create(sample, num_cells, SPACE)


class TestRegistry:
    def test_seven_techniques(self):
        assert len(PARTITIONERS) == 7

    def test_expected_disjointness(self):
        assert set(DISJOINT) == {"grid", "str+", "quadtree", "kdtree"}
        assert set(OVERLAPPING) == {"str", "zcurve", "hilbert"}


@pytest.mark.parametrize("name", ALL)
class TestEveryTechnique:
    def test_creates_cells(self, name):
        p = make(name)
        assert p.num_cells() >= 1

    def test_every_point_assigned_exactly_once(self, name):
        p = make(name)
        for pt in generate_points(500, "uniform", seed=9, space=SPACE):
            cell = p.assign_point(pt)
            assert 0 <= cell < p.num_cells()
            assert p.assign(pt.mbr) == [cell]

    def test_skewed_data_covered(self, name):
        p = make(name, distribution="gaussian")
        for pt in generate_points(300, "gaussian", seed=5, space=SPACE):
            assert 0 <= p.assign_point(pt) < p.num_cells()

    def test_boundary_points_assigned(self, name):
        p = make(name)
        for pt in (
            Point(SPACE.x1, SPACE.y1),
            Point(SPACE.x2, SPACE.y2),
            Point(SPACE.x1, SPACE.y2),
            Point(SPACE.x2, SPACE.y1),
            SPACE.center,
        ):
            assert 0 <= p.assign_point(pt) < p.num_cells()

    def test_assignment_deterministic(self, name):
        a = make(name, seed=3)
        b = make(name, seed=3)
        pts = generate_points(100, "uniform", seed=4, space=SPACE)
        assert [a.assign_point(p) for p in pts] == [b.assign_point(p) for p in pts]


@pytest.mark.parametrize("name", DISJOINT)
class TestDisjointTechniques:
    def test_cells_tile_without_overlap(self, name):
        p = make(name)
        rects = [p.cell_rect(i) for i in range(p.num_cells())]
        for i in range(len(rects)):
            for j in range(i + 1, len(rects)):
                assert not rects[i].intersects_open(rects[j])

    def test_cells_cover_space(self, name):
        p = make(name)
        rects = [p.cell_rect(i) for i in range(p.num_cells())]
        total = sum(r.area for r in rects)
        hull = rects[0]
        for r in rects[1:]:
            hull = hull.union(r)
        assert total == pytest.approx(hull.area, rel=1e-6)
        assert hull.contains_rect(SPACE)

    def test_point_lands_in_its_cell_rect(self, name):
        p = make(name)
        for pt in generate_points(300, "uniform", seed=7, space=SPACE):
            cell = p.assign_point(pt)
            assert p.cell_rect(cell).contains_point(pt)

    def test_rectangles_replicated_to_overlapping_cells(self, name):
        p = make(name)
        for rect in generate_rectangles(
            200, "uniform", seed=8, space=SPACE, avg_side_fraction=0.1
        ):
            cells = p.assign(rect)
            assert len(cells) >= 1
            assert len(set(cells)) == len(cells)  # no duplicates
            for cid in cells:
                assert p.cell_rect(cid).intersects(rect)

    def test_replication_complete(self, name):
        # Every cell whose closed rectangle meets the record is included:
        # boundary contact counts, as in the closed query predicates.
        p = make(name)
        for rect in generate_rectangles(
            100, "uniform", seed=13, space=SPACE, avg_side_fraction=0.15
        ):
            cells = set(p.assign(rect))
            for cid in range(p.num_cells()):
                if p.cell_rect(cid).intersects(rect):
                    assert cid in cells

    def test_bad_cell_id_raises(self, name):
        p = make(name)
        with pytest.raises(KeyError):
            p.cell_rect(p.num_cells() + 5)


@pytest.mark.parametrize("name", OVERLAPPING)
class TestOverlappingTechniques:
    def test_extended_shape_goes_to_one_cell(self, name):
        p = make(name)
        for rect in generate_rectangles(
            100, "uniform", seed=2, space=SPACE, avg_side_fraction=0.1
        ):
            assert len(p.assign(rect)) == 1


class TestLoadBalance:
    @pytest.mark.parametrize("name", ["str", "str+", "kdtree", "zcurve", "hilbert"])
    @pytest.mark.parametrize("distribution", ["uniform", "gaussian", "diagonal"])
    def test_sample_splits_evenly(self, name, distribution):
        # Sample-adaptive techniques keep cell loads within a small factor
        # of the mean even for skewed data (grid intentionally does not).
        p = make(name, distribution=distribution, n_sample=2000, num_cells=16)
        pts = generate_points(4000, distribution, seed=77, space=SPACE)
        counts = [0] * p.num_cells()
        for pt in pts:
            counts[p.assign_point(pt)] += 1
        mean = len(pts) / p.num_cells()
        assert max(counts) < 4 * mean

    def test_grid_overflows_under_skew(self):
        p = make("grid", distribution="gaussian", num_cells=16)
        pts = generate_points(4000, "gaussian", seed=77, space=SPACE)
        counts = [0] * p.num_cells()
        for pt in pts:
            counts[p.assign_point(pt)] += 1
        mean = len(pts) / p.num_cells()
        # The centre cells hold far more than their share.
        assert max(counts) > 3 * mean


class TestSpaceFillingCurves:
    def test_z_value_interleaves(self):
        assert z_value(0, 0) == 0
        assert z_value(1, 0) == 1
        assert z_value(0, 1) == 2
        assert z_value(1, 1) == 3
        assert z_value(2, 0) == 4

    def test_hilbert_first_order(self):
        # The four order-1 cells in Hilbert order: (0,0),(0,1),(1,1),(1,0).
        order1 = sorted(
            ((hilbert_value(x, y, 1), (x, y)) for x in (0, 1) for y in (0, 1))
        )
        assert [cell for _, cell in order1] == [(0, 0), (0, 1), (1, 1), (1, 0)]

    def test_hilbert_is_bijective_order3(self):
        values = {
            hilbert_value(x, y, 3) for x in range(8) for y in range(8)
        }
        assert values == set(range(64))

    def test_hilbert_locality_consecutive_adjacent(self):
        # Consecutive Hilbert positions are grid neighbours.
        inverse = {}
        for x in range(8):
            for y in range(8):
                inverse[hilbert_value(x, y, 3)] = (x, y)
        for d in range(63):
            (x1, y1), (x2, y2) = inverse[d], inverse[d + 1]
            assert abs(x1 - x2) + abs(y1 - y2) == 1

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1))
    @settings(max_examples=100)
    def test_z_value_distinct_per_coordinate(self, x, y):
        assert z_value(x, y) == z_value(x, y)
        if x != y:
            assert z_value(x, y) != z_value(y, x) or x == y
