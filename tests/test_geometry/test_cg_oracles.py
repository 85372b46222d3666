"""Delaunay, Voronoi, hull and farthest pair against the scalar oracles.

``tests/oracles/scalar_delaunay.py`` and ``scalar_hull.py`` are the
object-per-triangle Bowyer-Watson (super-triangle, area check, retry with
a wider margin) and the monotone chain over sorted ``Point`` records that
the library ran before it moved onto flat coordinates.

* Random floats: no four sites are cocircular, the triangulation is
  unique, and the triangles (in their reported vertex order), the region
  vertices, radii and closed flags must equal the oracle's bit for bit.
* Adversarial inputs — integer lattices, cocircular squares, collinear
  points, one vertical line, three sites, a near-collinear hull chain
  that makes the oracle rebuild with a wider margin — may have several
  Delaunay triangulations. There the triangulation is checked with exact
  predicates (empty circumcircles, ``2n - 2 - h`` triangles), the closed
  flags against the oracle exactly and region areas within 1e-9.
"""

import math
import random
from array import array
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point, Rectangle
from repro.geometry.algorithms.delaunay import _in_circumcircle, delaunay
from repro.geometry.algorithms.voronoi import safe_sites, voronoi
from repro.geometry import vectorized
from repro.index import build_index
from repro.mapreduce import FileSystem, JobRunner
from repro.operations import farthest_pair_hadoop, farthest_pair_spatial
from tests.oracles import scalar_delaunay, scalar_kernels
from tests.oracles.scalar_delaunay import scalar_voronoi
from tests.oracles.scalar_hull import convex_hull as scalar_hull


def random_sites(seed, n, spread=1000.0):
    rng = random.Random(seed)
    return list({
        Point(rng.uniform(0, spread), rng.uniform(0, spread)) for _ in range(n)
    })


def lattice(nx, ny, step=1.0):
    return [Point(i * step, j * step) for i in range(nx) for j in range(ny)]


def flat_hull_chain(seed):
    """A convex bottom chain so flat that its circumcircles outgrow the
    oracle's first super-triangle, plus random sites above it."""
    rng = random.Random(seed)
    chain = [Point(float(x), -1e-6 * (x - 500.0) ** 2) for x in range(0, 1001, 25)]
    return chain + [
        Point(rng.uniform(0, 1000), rng.uniform(1, 1000)) for _ in range(40)
    ]


ADVERSARIAL = {
    "lattice-6x5": lattice(6, 5),
    "lattice-12x3-halves": lattice(12, 3, 0.5),
    "cocircular-squares": [
        Point(float(x), float(y))
        for x, y in [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (3, 1), (1, 3),
                     (-1, 1), (1, -1)]
    ],
    "cocircular-ring": [  # all on x² + y² = 25, plus the centre
        Point(float(x), float(y))
        for x, y in [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0),
                     (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3), (0, 0)]
    ],
    "collinear": [Point(float(i), 2.0 * i + 1.0) for i in range(7)],
    "vertical-line": [Point(3.0, float(i)) for i in (5, 1, 4, 0, 2, 3)],
    "three-sites": [Point(0.0, 0.0), Point(4.0, 1.0), Point(1.0, 3.0)],
    "collinear-then-off": [Point(float(i), 0.0) for i in range(6)]
    + [Point(2.5, 1.0)],
    "flat-hull-chain": flat_hull_chain(1),
}


def reported(tri):
    return {t.vertices for t in tri.triangles}


# ----------------------------------------------------------------------
# Random floats: equal to the oracle exactly
# ----------------------------------------------------------------------
@given(st.integers(0, 2**32 - 1), st.integers(3, 60))
@settings(max_examples=40, deadline=None)
def test_random_floats_equal_the_oracle(seed, n):
    sites = random_sites(seed, n)
    ours = voronoi(sites)
    assert reported(ours.triangulation) == reported(scalar_delaunay.delaunay(sites))
    assert ours.regions == scalar_voronoi(sites)


def test_the_oracle_retries_on_these_inputs(monkeypatch):
    """The cases below really are the ones a margin had to be retried for."""
    builds = []
    real = scalar_delaunay._bowyer_watson
    monkeypatch.setattr(
        scalar_delaunay, "_bowyer_watson",
        lambda *args: builds.append(1) or real(*args),
    )
    scalar_delaunay.delaunay(ADVERSARIAL["flat-hull-chain"])
    assert len(builds) > 1
    builds.clear()
    sites = random_sites(5, 750)
    scalar_delaunay.delaunay(sites)
    assert len(builds) > 1
    ours = voronoi(sites)
    assert reported(ours.triangulation) == reported(scalar_delaunay.delaunay(sites))
    assert ours.regions == scalar_voronoi(sites)


# ----------------------------------------------------------------------
# Adversarial inputs: exact properties, oracle flags and areas
# ----------------------------------------------------------------------
def _cross(o, a, b):
    return (Fraction(a.x) - Fraction(o.x)) * (Fraction(b.y) - Fraction(o.y)) - (
        Fraction(a.y) - Fraction(o.y)
    ) * (Fraction(b.x) - Fraction(o.x))


def hull_boundary(sites):
    """Sites on the boundary of the convex hull (exact arithmetic): on a
    closed edge of the monotone chain run with exact cross products."""
    ordered = sorted(sites)

    def half(points):
        out = []
        for p in points:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    vertices = half(ordered)[:-1] + half(ordered[::-1])[:-1]
    edges = list(zip(vertices, vertices[1:] + vertices[:1]))
    return {
        i for i, p in enumerate(sites)
        if any(
            _cross(a, b, p) == 0
            and min(a, b) <= p <= max(a, b)  # (x, y) order along the edge
            for a, b in edges
        )
    }


@pytest.mark.parametrize("name", sorted(ADVERSARIAL))
def test_adversarial_inputs(name):
    sites = ADVERSARIAL[name]
    tri = delaunay(sites)
    triangles = tri.triangles
    collinear = all(_cross(sites[0], sites[1], r) == 0 for r in sites)
    if collinear:
        assert triangles == [] and tri.hull == set()
    else:
        boundary = hull_boundary(sites)
        assert tri.hull == boundary
        assert len(triangles) == 2 * len(sites) - 2 - len(boundary)
        for t in triangles:
            a, b, c = (sites[v] for v in t.vertices)
            assert _cross(a, b, c) > 0  # counter-clockwise, not degenerate
            for i, p in enumerate(sites):
                if i not in t.vertices:
                    assert not _in_circumcircle(p, a, b, c)
    ours = voronoi(sites).regions
    theirs = scalar_voronoi(sites)
    assert [r.closed for r in ours] == [r.closed for r in theirs]
    for mine, oracle in zip(ours, theirs):
        if mine.closed:
            assert math.isclose(
                mine.polygon().area, oracle.polygon().area, rel_tol=1e-9
            )


@given(
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
        min_size=3, max_size=40, unique=True,
    )
)
@settings(max_examples=60, deadline=None)
def test_lattice_subsets(coords):
    sites = [Point(float(x), float(y)) for x, y in coords]
    tri = delaunay(sites)
    if all(_cross(sites[0], sites[1], r) == 0 for r in sites):
        assert tri.triangles == []
    else:
        assert len(tri.triangles) == 2 * len(sites) - 2 - len(hull_boundary(sites))
    ours = voronoi(sites).regions
    theirs = scalar_voronoi(sites)
    assert [r.closed for r in ours] == [r.closed for r in theirs]


@pytest.mark.parametrize("seed", range(4))
def test_safe_sites_on_tangent_cells(seed):
    """Cells whose edge one region's dangerous zone touches exactly: the
    safe set equals the per-region test site for site, to the last ulp."""
    diagram = voronoi(random_sites(seed, 120))
    regions = diagram.regions
    far = 1e9
    for region in regions:
        if not region.closed:
            continue
        zone = list(zip(region.vertices, region.radii))
        for cell in (
            Rectangle(min(v.x - r for v, r in zone), -far, far, far),
            Rectangle(-far, min(v.y - r for v, r in zone), far, far),
            Rectangle(-far, -far, max(v.x + r for v, r in zone), far),
            Rectangle(-far, -far, far, max(v.y + r for v, r in zone)),
        ):
            assert safe_sites(diagram.triangulation, cell) == [
                i for i, reg in enumerate(regions) if reg.dangerous_zone_inside(cell)
            ]


# ----------------------------------------------------------------------
# Hull kernel
# ----------------------------------------------------------------------
def brute_hull(points):
    """Vertices of the hull (distinct, no collinear boundary points)."""
    distinct = sorted(set(points))
    if len(distinct) <= 2:
        return set(distinct)
    vertices = set()
    for p in distinct:
        for q in distinct:
            if q == p:
                continue
            # p -> q is a CCW hull edge: nothing to its right, and the
            # points on its line lie on the segment.
            ok = True
            for r in distinct:
                side = _cross(p, q, r)
                if side < 0 or (side == 0 and not (
                    min(p.x, q.x) <= r.x <= max(p.x, q.x)
                    and min(p.y, q.y) <= r.y <= max(p.y, q.y)
                )):
                    ok = False
                    break
            if ok:
                vertices.add(p)
    return vertices


def hull_rows(points, backend):
    """The NumPy kernel, or the ``array('d')`` loop it replaced."""
    xs, ys = [p.x for p in points], [p.y for p in points]
    if backend == "numpy":
        return vectorized.hull_rows(
            np.array(xs, dtype=float), np.array(ys, dtype=float)
        )
    return scalar_kernels.hull_rows(array("d", xs), array("d", ys))


lattice_points = st.lists(
    st.builds(Point, st.integers(-5, 5).map(float), st.integers(-5, 5).map(float)),
    max_size=30,
)
collinear_points = st.lists(
    st.integers(-6, 6).map(lambda v: Point(float(v), 3.0 * v - 2.0)), max_size=12
)


@pytest.mark.parametrize("backend", ["numpy", "array"])
@given(st.one_of(lattice_points, collinear_points))
@settings(max_examples=80, deadline=None)
def test_hull_rows_equal_brute_force(backend, points):
    rows = hull_rows(points, backend)
    hull = [points[r] for r in rows]
    assert hull == scalar_hull(points)
    assert set(hull) == brute_hull(points)
    # Duplicates: each hull point is reported by its first row.
    assert all(points.index(points[r]) == r for r in rows)


@pytest.mark.parametrize("seed", range(8))
def test_hull_rows_random_floats(seed):
    rng = random.Random(seed)
    n = rng.choice([5, 50, 3000])
    points = [Point(rng.gauss(0, 1e5), rng.gauss(0, 1e5)) for _ in range(n)]
    want = scalar_hull(points)
    for backend in ("numpy", "array"):
        assert [points[r] for r in hull_rows(points, backend)] == want


# ----------------------------------------------------------------------
# Farthest pair: the indexed operation against the heap variant
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "points",
    [
        [Point(float(x), float(y)) for x in range(0, 40, 3) for y in range(0, 40, 3)],
        [Point(float(i), 2.0 * i) for i in range(60)],
        random_sites(4, 900),
    ],
    ids=["lattice", "collinear", "random"],
)
@pytest.mark.parametrize("technique", ["grid", "str", "quadtree"])
def test_farthest_pair_equals_the_heap_variant(points, technique):
    fs = FileSystem(default_block_capacity=60)
    runner = JobRunner(fs, workers=1)
    fs.create_file("pts", points)
    build_index(runner, "pts", "idx", technique)
    indexed = farthest_pair_spatial(runner, "idx").answer
    heap = farthest_pair_hadoop(runner, "pts").answer
    assert indexed[0].distance_sq(indexed[1]) == heap[0].distance_sq(heap[1])
