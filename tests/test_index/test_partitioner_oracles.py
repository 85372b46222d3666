"""Partition planning on centre arrays against the ``Point``-list oracle.

Every technique's ``create`` must plan the same cells from ``(xs, ys)``
arrays as from the ``Point`` list they were taken from, and both must
equal the record-at-a-time planner in ``tests/oracles``: the same cell
count, the same cell rectangles (or curve splits) and the same cell for
every probe point — on random samples and on the adversarial ones that
stress sort ties and degenerate splits.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rectangle
from repro.index import PARTITIONERS
from tests.oracles.scalar_partitioners import scalar_create

TECHNIQUES = sorted(PARTITIONERS)
FALLBACK_SPACE = Rectangle(0.0, 0.0, 100.0, 100.0)


def space_of(points):
    if not points:
        return FALLBACK_SPACE
    return Rectangle(
        min(p.x for p in points), min(p.y for p in points),
        max(p.x for p in points), max(p.y for p in points),
    )


def plan(part, probe):
    """What a partitioner decides: cells, boundaries, probe routing."""
    xs = np.array([p.x for p in probe], dtype=float)
    ys = np.array([p.y for p in probe], dtype=float)
    try:
        rects = [part.cell_rect(c) for c in range(part.num_cells())]
    except NotImplementedError:  # curve cells have no boundary
        rects = list(part._splits)
    return (
        part.num_cells(),
        rects,
        part._point_cells(xs, ys).tolist(),
        [part.assign_point(p) for p in probe],
    )


def check_same_plans(points, num_cells):
    space = space_of(points)
    columns = (
        np.array([p.x for p in points], dtype=float),
        np.array([p.y for p in points], dtype=float),
    )
    probe = list(points) + [
        Point(space.x1 + space.width * i / 7, space.y1 + space.height * j / 7)
        for i in range(8) for j in range(8)
    ]
    for technique in TECHNIQUES:
        cls = PARTITIONERS[technique]
        want = plan(scalar_create(cls, points, num_cells, space), probe)
        assert plan(cls.create(points, num_cells, space), probe) == want, (
            technique
        )
        assert plan(cls.create(columns, num_cells, space), probe) == want, (
            technique
        )


def _lattice(n, side):
    rng = random.Random(n * 31 + side)
    return [
        Point(float(rng.randrange(side)), float(rng.randrange(side)))
        for _ in range(n)
    ]


def _duplicates(n):
    rng = random.Random(n)
    base = [Point(rng.uniform(0, 50), rng.uniform(0, 50)) for _ in range(5)]
    return [rng.choice(base) for _ in range(n)]


ADVERSARIAL = {
    "empty": [],
    "one": [Point(3.0, 4.0)],
    "two": [Point(3.0, 4.0), Point(-1.5, 9.0)],
    "two-equal": [Point(3.0, 4.0), Point(3.0, 4.0)],
    "lattice": _lattice(600, 12),
    "dense-lattice": _lattice(900, 3),
    "full-lattice": [
        Point(float(i), float(j)) for i in range(20) for j in range(20)
    ],
    "duplicates": _duplicates(500),
    "all-equal": [Point(7.0, 7.0)] * 300,
    "horizontal": [Point(float(i % 37), 2.0) for i in range(400)],
    "vertical": [Point(-3.0, float(i % 41)) for i in range(400)],
    "diagonal": [Point(float(i % 29), float(i % 29)) for i in range(400)],
    "signed-zeros": [Point(0.0, -0.0), Point(-0.0, 0.0)] * 50
    + [Point(1.0, -1.0)] * 20,
}


@pytest.mark.parametrize("num_cells", [1, 2, 5, 16, 100, 1000])
@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_samples(name, num_cells):
    check_same_plans(ADVERSARIAL[name], num_cells)


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("distribution", ["uniform", "gaussian"])
def test_random_samples(seed, distribution):
    rng = random.Random(seed)
    draw = (
        (lambda: rng.uniform(0, 1e6)) if distribution == "uniform"
        else (lambda: rng.gauss(5e5, 2e4))
    )
    points = [Point(draw(), draw()) for _ in range(rng.choice([40, 2000]))]
    check_same_plans(points, rng.choice([3, 25, 64]))


@given(
    coords=st.lists(
        st.tuples(
            st.integers(-20, 20).map(float)
            | st.floats(-1e3, 1e3, allow_nan=False),
            st.integers(-20, 20).map(float)
            | st.floats(-1e3, 1e3, allow_nan=False),
        ),
        max_size=120,
    ),
    num_cells=st.integers(1, 150),
)
@settings(max_examples=80, deadline=None)
def test_any_sample(coords, num_cells):
    check_same_plans([Point(x, y) for x, y in coords], num_cells)
