"""Delaunay triangulation (Bowyer-Watson) over flat coordinate lists.

The single-machine building block of the Voronoi-diagram operation. Sites
are inserted one at a time along a Hilbert curve; the triangles whose
circumcircle contains the new site (the *cavity*) are removed and the
cavity is re-triangulated against the site. Point location walks from a
triangle the previous insertion made, which the curve keeps close.

Representation: the sites are two float lists. A triangle is a slot in
parallel lists — three vertex rows in counter-clockwise order, the three
neighbours (slot ``k`` across the edge from vertex ``k`` to vertex
``k + 1``) and its circumcircle, computed once when the triangle is made.
An insertion makes exactly two more triangles than it removes, so it
reuses the removed triangles' slots and appends two.

Hull edges are closed by *ghost* triangles ``(a, b, GHOST)`` whose third
vertex is a symbolic vertex at infinity, so every step triangulates the
whole plane and no super-triangle has to be placed around the data. The
circumcircle of a ghost degenerates to the open half-plane left of
``a -> b`` plus the open segment ``ab``; that test is exact, so there is
no margin that near-collinear hull chains can outgrow.

Robustness: a site is inside a triangle's circumcircle when its squared
distance to the cached centre is below the cached radius²; the float
comparison is trusted outside an error band that bounds the rounding of
the centre, and inside it the exact predicate decides. Orientation tests
run a floating-point filter with a magnitude-scaled error bound, falling
back to *exact* rational arithmetic (:class:`fractions.Fraction` over the
exact float inputs) when the filter cannot decide the sign — the standard
adaptive-precision approach.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry.curves import hilbert_value
from repro.geometry.point import Point

#: The symbolic vertex at infinity of the ghost triangles.
GHOST = -1

#: Unit roundoff of float64.
_EPS = 2.0 ** -53
#: The cached circle of a degenerate triangle: no centre, always exact.
_DEGENERATE = (math.nan, math.nan, 0.0, math.inf)


@dataclass(frozen=True)
class Triangle:
    """A triangle over site indexes (into the input point list)."""

    a: int
    b: int
    c: int

    @property
    def vertices(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)


def circumcenter(p1: Point, p2: Point, p3: Point) -> Optional[Point]:
    """Circumcenter of three points, or None when (nearly) collinear."""
    (ax, ay), (bx, by), (cx, cy) = (p1.x, p1.y), (p2.x, p2.y), (p3.x, p3.y)
    circle = _circle(
        ax, ay, ax * ax + ay * ay, bx, by, bx * bx + by * by,
        cx, cy, cx * cx + cy * cy,
        max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy), 1.0),
    )
    return None if circle is None else Point(circle[0], circle[1])


def _circle(ax, ay, a_sq, bx, by, b_sq, cx, cy, c_sq, scale):
    """``(ux, uy, r², band)`` of a triangle, or None when (nearly) collinear.

    ``a_sq`` is ``ax * ax + ay * ay`` (likewise ``b_sq``, ``c_sq``) and
    ``scale`` the largest coordinate magnitude, at least 1.

    ``band`` bounds the rounding of ``|p - u|² - r²`` for any ``p`` with
    ``|p - u| <= 2r`` (for farther points the sign cannot be wrong): a
    centre error ``e`` moves both squares by at most ``2e(|p - u| + r)
    + e²``, and ``e`` follows from the first-order rounding of the
    numerators (terms up to ``2M² s``) and of ``d`` (terms up to ``M s``),
    with ``M`` the coordinate magnitude and ``s`` the triangle's extent.
    """
    byc, cya, ayb = by - cy, cy - ay, ay - by
    d = 2.0 * (ax * byc + bx * cya + cx * ayb)
    if abs(d) < 1e-14 * scale * scale:
        return None
    cxb, axc, bxa = cx - bx, ax - cx, bx - ax
    ux = (a_sq * byc + b_sq * cya + c_sq * ayb) / d
    uy = (a_sq * cxb + b_sq * axc + c_sq * bxa) / d
    dx, dy = ax - ux, ay - uy
    r2 = dx * dx + dy * dy
    extent = abs(byc) + abs(cya) + abs(cxb) + abs(axc)
    u = abs(ux) + abs(uy)
    err = 128.0 * _EPS * (scale * extent * (scale + u) / abs(d) + u)
    if 64.0 * err * err > r2:  # centre too uncertain: always exact
        return ux, uy, r2, math.inf
    return ux, uy, r2, 6.0 * err * math.sqrt(r2) + 2.0 * err * err + 32.0 * _EPS * r2


def _orient_sign(pa: Point, pb: Point, pc: Point) -> int:
    """Sign of the orientation determinant, exact when the filter fails."""
    detleft = (pa.x - pc.x) * (pb.y - pc.y)
    detright = (pa.y - pc.y) * (pb.x - pc.x)
    det = detleft - detright
    errbound = 3.33e-16 * (abs(detleft) + abs(detright))
    if det > errbound:
        return 1
    if det < -errbound:
        return -1
    # Exact fallback: floats are exact rationals.
    det_exact = Fraction(pa.x - pc.x) * Fraction(pb.y - pc.y) - Fraction(
        pa.y - pc.y
    ) * Fraction(pb.x - pc.x)
    if det_exact > 0:
        return 1
    if det_exact < 0:
        return -1
    return 0


def _in_circumcircle(p: Point, p1: Point, p2: Point, p3: Point) -> bool:
    """True when ``p`` is strictly inside the circumcircle of CCW (p1,p2,p3)."""
    adx, ady = p1.x - p.x, p1.y - p.y
    bdx, bdy = p2.x - p.x, p2.y - p.y
    cdx, cdy = p3.x - p.x, p3.y - p.y
    alift = adx * adx + ady * ady
    blift = bdx * bdx + bdy * bdy
    clift = cdx * cdx + cdy * cdy
    bxcy = bdx * cdy
    cxby = cdx * bdy
    axcy = adx * cdy
    cxay = cdx * ady
    axby = adx * bdy
    bxay = bdx * ady
    det = alift * (bxcy - cxby) - blift * (axcy - cxay) + clift * (axby - bxay)
    permanent = (
        alift * (abs(bxcy) + abs(cxby))
        + blift * (abs(axcy) + abs(cxay))
        + clift * (abs(axby) + abs(bxay))
    )
    errbound = 1.1e-15 * permanent
    if det > errbound:
        return True
    if det < -errbound:
        return False
    # Exact fallback.
    fadx, fady = Fraction(p1.x) - Fraction(p.x), Fraction(p1.y) - Fraction(p.y)
    fbdx, fbdy = Fraction(p2.x) - Fraction(p.x), Fraction(p2.y) - Fraction(p.y)
    fcdx, fcdy = Fraction(p3.x) - Fraction(p.x), Fraction(p3.y) - Fraction(p.y)
    det_exact = (
        (fadx * fadx + fady * fady) * (fbdx * fcdy - fcdx * fbdy)
        - (fbdx * fbdx + fbdy * fbdy) * (fadx * fcdy - fcdx * fady)
        + (fcdx * fcdx + fcdy * fcdy) * (fadx * fbdy - fbdx * fady)
    )
    return det_exact > 0


@dataclass
class Triangulation:
    """The result of :func:`delaunay`: triangles over the input sites.

    Triangle ``t`` has the vertex rows ``corners[3t:3t + 3]``, counter-
    clockwise from the lower-numbered of its two vertices that are not
    last in ``(x, y)`` order — the order an insertion in ``(x, y)`` order
    produces, which the rounding of its circumcentre depends on.
    """

    points: List[Point]
    corners: List[int] = field(default_factory=list)
    #: Per triangle, its :func:`circumcenter` (None when degenerate).
    centers: List[Optional[Point]] = field(default_factory=list)
    #: Sites on the convex hull: the vertices of the ghost triangles.
    hull: Set[int] = field(default_factory=set)

    @property
    def triangles(self) -> List[Triangle]:
        c = self.corners
        return [Triangle(c[i], c[i + 1], c[i + 2]) for i in range(0, len(c), 3)]

    @cached_property
    def fans(self) -> List[List[int]]:
        """Per site, the triangles it is a vertex of (ascending)."""
        out: List[List[int]] = [[] for _ in self.points]
        for i, v in enumerate(self.corners):
            out[v].append(i // 3)
        return out

    def neighbors_of(self) -> Dict[int, Set[int]]:
        """Site adjacency: Delaunay neighbors (== Voronoi neighbors)."""
        c = self.corners
        return {
            i: {v for t in fan for v in c[3 * t:3 * t + 3]} - {i}
            for i, fan in enumerate(self.fans)
        }


def delaunay(points: Sequence[Point]) -> Triangulation:
    """Delaunay triangulation of distinct points (Bowyer-Watson).

    Duplicate points must be removed by the caller (a ``ValueError`` is
    raised otherwise); fewer than 3 points or fully collinear input yields
    a triangulation with no triangles.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("delaunay requires distinct points")
    if len(pts) < 3:
        return Triangulation(points=pts)
    return _Mesh(pts).triangulation()


def _hilbert_order(xs: List[float], ys: List[float]) -> List[int]:
    """Site rows along a Hilbert curve over the sites' bounding box.

    The grid has about one cell per site; a finer curve buys the walk no
    locality and costs a key loop iteration per extra bit.
    """
    order = max(1, (len(xs).bit_length() + 1) // 2)
    x0, y0 = min(xs), min(ys)
    side = (1 << order) - 1
    sx, sy = (side / w if w > 0 else 0.0 for w in (max(xs) - x0, max(ys) - y0))
    keys = [
        hilbert_value(int((x - x0) * sx), int((y - y0) * sy), order)
        for x, y in zip(xs, ys)
    ]
    return sorted(range(len(xs)), key=keys.__getitem__)


class _Mesh:
    """The triangle slots of one Bowyer-Watson run (see the module doc).

    Slot ``t`` has the vertices ``corner[3t:3t + 3]``, the neighbours
    ``across[3t:3t + 3]`` and ``circle[t]``: ``(cx, cy, r², band, a, b,
    c)`` with ``(a, b, c)`` the reported order (see
    :class:`Triangulation`), or None for a ghost. A triangle made by
    inserting ``p`` over the rim edge ``(u, v)`` is stored as ``(u, v,
    p)``. ``last`` is a real triangle of the latest insertion, where the
    next walk starts.
    """

    def __init__(self, pts: List[Point]):
        self.pts = pts
        self.xs = xs = [p.x for p in pts]
        self.ys = ys = [p.y for p in pts]
        self.sq = [x * x + y * y for x, y in zip(xs, ys)]
        self.mag = [max(abs(x), abs(y)) for x, y in zip(xs, ys)]
        self.rank = rank = [0] * len(pts)
        for r, (_x, _y, i) in enumerate(sorted(zip(xs, ys, range(len(pts))))):
            rank[i] = r
        self.corner: List[int] = []
        self.across: List[int] = []
        self.circle: List[Optional[tuple]] = []
        order = _hilbert_order(xs, ys)
        a, b = order[0], order[1]
        for k in range(2, len(order)):
            side = _orient_sign(pts[a], pts[b], pts[order[k]])
            if side:
                break
        else:
            return  # all collinear: no triangles
        # Two ghosts back to back over the edge ab triangulate the plane
        # with the vertex at infinity; the first true triangle is the
        # insertion of a site off the line.
        self.corner += (a, b, GHOST, b, a, GHOST)
        self.across += (1, 1, 1, 0, 0, 0)
        self.circle += (None, None)
        self.insert(order[k], 0 if side > 0 else 1)
        for site in order[2:k] + order[k + 1:]:
            self.insert(site, self.locate(site))

    def in_circle_exact(self, t: int, p: int) -> bool:
        """Is site ``p`` strictly inside the circumcircle of slot ``t``?

        The exact test, for a ghost or when the cached circle's float
        comparison falls inside its error band.
        """
        pts = self.pts
        tri = self.corner[3 * t:3 * t + 3]
        if GHOST not in tri:
            return _in_circumcircle(pts[p], *(pts[v] for v in tri))
        g = tri.index(GHOST)
        a, b = pts[tri[(g + 1) % 3]], pts[tri[(g + 2) % 3]]
        side = _orient_sign(a, b, pts[p])
        # On the line ab, p is inside iff strictly between a and b.
        return side > 0 if side else min(a, b) < pts[p] < max(a, b)

    def locate(self, p: int) -> int:
        """Visibility walk from the last insertion to a triangle whose
        circumcircle holds ``p``: a real triangle containing it, or the
        ghost beyond the hull edge it lies outside of."""
        corner, across, circle = self.corner, self.across, self.circle
        xs, ys, pts = self.xs, self.ys, self.pts
        px, py = xs[p], ys[p]
        t = self.last
        while True:
            base = 3 * t
            for k in (0, 1, 2):
                # orient(u, v, p) < 0, filtered as in _orient_sign.
                u, v = corner[base + k], corner[base + (k + 1) % 3]
                left = (xs[u] - px) * (ys[v] - py)
                right = (ys[u] - py) * (xs[v] - px)
                bound = 3.33e-16 * (abs(left) + abs(right))
                if left - right < -bound or (left - right <= bound and (
                    _orient_sign(pts[u], pts[v], pts[p]) < 0
                )):
                    t = across[base + k]
                    break
            else:
                return t
            if circle[t] is None:
                return t

    def insert(self, p: int, seed: int) -> None:
        """Replace the cavity of ``p`` (grown from ``seed``) by its fan."""
        corner, across, circles = self.corner, self.across, self.circle
        px, py = self.xs[p], self.ys[p]
        cavity, removed = [seed], {seed}
        rim: List[Tuple[int, int, int]] = []  # CCW edges (u, v), outside
        for t in cavity:  # grows while iterated: breadth-first
            base = 3 * t
            for k in (0, 1, 2):
                nb = across[base + k]
                if nb in removed:
                    continue
                circle = circles[nb]
                if circle is not None:
                    dx, dy = px - circle[0], py - circle[1]
                    diff = dx * dx + dy * dy - circle[2]
                if circle is not None and abs(diff) > circle[3]:
                    inside = diff < 0
                else:  # a ghost, inside the band, or no centre (nan)
                    inside = self.in_circle_exact(nb, p)
                if inside:
                    removed.add(nb)
                    cavity.append(nb)
                else:
                    rim.append((corner[base + k], corner[base + (k + 1) % 3], nb))
        # A star-shaped cavity of c triangles has c + 2 rim edges.
        cavity += (len(circles), len(circles) + 1)
        corner += (GHOST,) * 6
        across += (GHOST,) * 6
        circles += (None, None)
        start: Dict[int, int] = {}
        for t, (u, v, nb) in zip(cavity, rim):
            corner[3 * t:3 * t + 3] = u, v, p
            # Edge (u, v) faces nb's edge (v, u).
            across[3 * t] = nb
            across[3 * nb + corner[3 * nb:3 * nb + 3].index(v)] = t
            start[u] = t
            circles[t] = None if GHOST in (u, v) else self.circle_of(u, v, p)
        self.last = next(t for t in cavity if circles[t] is not None)
        # Around p the fan closes: edge (v, p) of one new triangle faces
        # edge (p, v) of the one whose rim edge starts at v.
        for t in cavity:
            t2 = start[corner[3 * t + 1]]
            across[3 * t + 1] = t2
            across[3 * t2 + 2] = t

    def circle_of(self, u: int, v: int, p: int) -> tuple:
        """The cached circle and reported order of triangle ``(u, v, p)``.

        The reported order starts at the lower-numbered of the two
        vertices that are not last in ``(x, y)`` order (``rank``) and
        keeps the counter-clockwise turn.
        """
        rank = self.rank
        ru, rv, rp = rank[u], rank[v], rank[p]
        if rp > ru and rp > rv:
            a, b, c = (u, v, p) if u < v else (v, p, u)
        elif rv > ru:
            a, b, c = (u, v, p) if u < p else (p, u, v)
        else:
            a, b, c = (v, p, u) if v < p else (p, u, v)
        xs, ys, sq, mag = self.xs, self.ys, self.sq, self.mag
        circle = _circle(
            xs[a], ys[a], sq[a], xs[b], ys[b], sq[b], xs[c], ys[c], sq[c],
            max(mag[a], mag[b], mag[c], 1.0),
        )
        # A degenerate triangle has no centre and always takes the exact
        # in-circle test.
        return (circle or _DEGENERATE) + (a, b, c)

    def triangulation(self) -> Triangulation:
        real = [c for c in self.circle if c is not None]
        ghosts = [t for t, c in enumerate(self.circle) if c is None]
        return Triangulation(
            self.pts,
            [v for c in real for v in c[4:]],
            [None if math.isnan(c[0]) else Point(c[0], c[1]) for c in real],
            {v for t in ghosts for v in self.corner[3 * t:3 * t + 3]} - {GHOST},
        )
