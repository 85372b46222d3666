"""The object-per-triangle Delaunay triangulation, kept as the oracle.

This is the Bowyer-Watson construction (and, in :func:`scalar_voronoi`,
the Voronoi region loop) that ``repro.geometry.algorithms.delaunay`` and
``voronoi`` ran before they moved onto flat coordinate lists with a
symbolic vertex at infinity. Points are inserted one at a time in
``(x, y)`` order, the triangles whose circumcircle contains the new point
are removed, and the resulting cavity is re-triangulated against the new
point. A super-triangle far outside the data bounds keeps every
intermediate step a valid triangulation.

Robustness is handled on two axes:

* the orientation and in-circumcircle predicates run a floating-point
  filter with a magnitude-scaled error bound, falling back to *exact*
  rational arithmetic (:class:`fractions.Fraction` over the exact float
  inputs) when the filter cannot decide the sign — the standard adaptive
  -precision approach;
* a fixed super-triangle margin can never dominate every circumradius
  (near-collinear triples have unbounded circumcircles), so the result is
  validated by comparing the triangulated area against the hull area and
  the construction retries with a much larger margin on mismatch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro.geometry.algorithms.voronoi import VoronoiRegion
from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle
from tests.oracles.scalar_hull import convex_hull


@dataclass(frozen=True)
class Triangle:
    """A triangle over site indexes (into the input point list)."""

    a: int
    b: int
    c: int

    @property
    def vertices(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)

    @property
    def edges(self) -> Tuple[FrozenSet[int], ...]:
        return (
            frozenset((self.a, self.b)),
            frozenset((self.b, self.c)),
            frozenset((self.c, self.a)),
        )


def circumcenter(p1: Point, p2: Point, p3: Point) -> Optional[Point]:
    """Circumcenter of three points, or None when (nearly) collinear."""
    ax, ay = p1.x, p1.y
    bx, by = p2.x, p2.y
    cx, cy = p3.x, p3.y
    d = 2.0 * (ax * (by - cy) + bx * (cy - ay) + cx * (ay - by))
    scale = max(abs(ax), abs(ay), abs(bx), abs(by), abs(cx), abs(cy), 1.0)
    if abs(d) < 1e-14 * scale * scale:
        return None
    a_sq = ax * ax + ay * ay
    b_sq = bx * bx + by * by
    c_sq = cx * cx + cy * cy
    ux = (a_sq * (by - cy) + b_sq * (cy - ay) + c_sq * (ay - by)) / d
    uy = (a_sq * (cx - bx) + b_sq * (ax - cx) + c_sq * (bx - ax)) / d
    return Point(ux, uy)


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
    """The result of :func:`delaunay`: triangles over the input sites."""

    points: List[Point]
    triangles: List[Triangle] = field(default_factory=list)

    def neighbors_of(self) -> Dict[int, Set[int]]:
        """Site adjacency: Delaunay neighbors (== Voronoi neighbors)."""
        out: Dict[int, Set[int]] = {i: set() for i in range(len(self.points))}
        for t in self.triangles:
            for u in t.vertices:
                for v in t.vertices:
                    if u != v:
                        out[u].add(v)
        return out

    def triangles_of_site(self) -> Dict[int, List[Triangle]]:
        out: Dict[int, List[Triangle]] = {i: [] for i in range(len(self.points))}
        for t in self.triangles:
            for v in t.vertices:
                out[v].append(t)
        return out


def delaunay(points: Sequence[Point]) -> Triangulation:
    """Delaunay triangulation of distinct points (Bowyer-Watson).

    Duplicate points must be removed by the caller (a ``ValueError`` is
    raised otherwise); fewer than 3 points or fully collinear input yields
    a triangulation with no triangles.
    """
    pts = list(points)
    if len(set(pts)) != len(pts):
        raise ValueError("delaunay requires distinct points")
    n = len(pts)
    if n < 3:
        return Triangulation(points=pts)

    expected_area = _hull_area(pts)
    margin_factor = 64.0
    last: Optional[List[Triangle]] = None
    for _attempt in range(5):
        triangles = _bowyer_watson(pts, margin_factor)
        if expected_area == 0.0:
            return Triangulation(points=pts, triangles=triangles)
        got = sum(_triangle_area(pts, t) for t in triangles)
        if math.isclose(got, expected_area, rel_tol=1e-9):
            return Triangulation(points=pts, triangles=triangles)
        last = triangles
        margin_factor *= 1024.0  # some circumcircle outgrew the margin
    return Triangulation(points=pts, triangles=last or [])


def _hull_area(pts: List[Point]) -> float:
    hull = convex_hull(pts)
    if len(hull) < 3:
        return 0.0
    area = 0.0
    for i in range(len(hull)):
        a, b = hull[i], hull[(i + 1) % len(hull)]
        area += a.x * b.y - b.x * a.y
    return abs(area) / 2.0


def _triangle_area(pts: List[Point], t: Triangle) -> float:
    a, b, c = pts[t.a], pts[t.b], pts[t.c]
    return abs((b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)) / 2.0


def _bowyer_watson(pts: List[Point], margin_factor: float) -> List[Triangle]:
    n = len(pts)
    mbr = Rectangle.from_points(pts)
    span = max(mbr.width, mbr.height, 1.0)
    cx, cy = mbr.center.x, mbr.center.y
    margin = margin_factor * span
    super_pts = [
        Point(cx - margin, cy - margin / 2),
        Point(cx + margin, cy - margin / 2),
        Point(cx, cy + margin),
    ]
    all_pts = pts + super_pts
    s0, s1, s2 = n, n + 1, n + 2

    def ccw(t: Triangle) -> Triangle:
        if _orient_sign(all_pts[t.a], all_pts[t.b], all_pts[t.c]) > 0:
            return t
        return Triangle(t.a, t.c, t.b)

    # Hot-loop representation: triangles are plain (a, b, c) tuples in CCW
    # order and edges are sorted (u, v) tuples — much cheaper to hash than
    # dataclasses/frozensets. Edge -> incident triangles adjacency powers
    # both the point-location walk and the cavity BFS, making an insertion
    # roughly O(cavity size) instead of O(all triangles).
    Tri = Tuple[int, int, int]
    Edge = Tuple[int, int]
    triangles: Set[Tri] = set()
    edge_map: Dict[Edge, List[Tri]] = {}

    def tri_edges(t: Tri) -> Tuple[Edge, Edge, Edge]:
        a, b, c = t
        return (
            (a, b) if a < b else (b, a),
            (b, c) if b < c else (c, b),
            (c, a) if c < a else (a, c),
        )

    def add(t: Tri) -> None:
        triangles.add(t)
        for e in tri_edges(t):
            edge_map.setdefault(e, []).append(t)

    def remove(t: Tri) -> None:
        triangles.discard(t)
        for e in tri_edges(t):
            incident = edge_map.get(e)
            if incident is not None:
                try:
                    incident.remove(t)
                except ValueError:
                    pass
                if not incident:
                    del edge_map[e]

    def neighbor(t: Tri, e: Edge) -> Optional[Tri]:
        for other in edge_map.get(e, ()):
            if other != t:
                return other
        return None

    def locate(p: Point, seed: Tri) -> Tri:
        """Visibility walk from ``seed`` to a triangle containing ``p``."""
        current = seed
        for _ in range(4 * max(len(triangles), 1)):
            moved = False
            a, b, c = current
            for u, v in ((a, b), (b, c), (c, a)):
                if _orient_sign(all_pts[u], all_pts[v], p) < 0:
                    nxt = neighbor(current, (u, v) if u < v else (v, u))
                    if nxt is not None:
                        current = nxt
                        moved = True
                        break
            if not moved:
                return current
        # Pathological cycle: brute-force fallback.
        for t in triangles:
            a, b, c = t
            if (
                _orient_sign(all_pts[a], all_pts[b], p) >= 0
                and _orient_sign(all_pts[b], all_pts[c], p) >= 0
                and _orient_sign(all_pts[c], all_pts[a], p) >= 0
            ):
                return t
        return current

    def ccw_tuple(a: int, b: int, c: int) -> Tri:
        if _orient_sign(all_pts[a], all_pts[b], all_pts[c]) > 0:
            return (a, b, c)
        return (a, c, b)

    add(ccw_tuple(s0, s1, s2))
    last: Tri = next(iter(triangles))

    # Insert in x-sorted order so the walk from the previous insertion's
    # triangle is short.
    order = sorted(range(n), key=lambda i: (pts[i].x, pts[i].y))
    in_circle = _in_circumcircle
    for idx in order:
        p = all_pts[idx]
        if last not in triangles:
            last = next(iter(triangles))
        seed = locate(p, last)

        # Cavity BFS: bad triangles form a connected region around p.
        bad: List[Tri] = []
        stack = [seed]
        seen = {seed}
        while stack:
            t = stack.pop()
            if not in_circle(p, all_pts[t[0]], all_pts[t[1]], all_pts[t[2]]):
                continue
            bad.append(t)
            for e in tri_edges(t):
                nxt = neighbor(t, e)
                if nxt is not None and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        if not bad:
            # p exactly cocircular edge case: force the seed open so the
            # insertion still proceeds.
            bad = [seed]

        edge_count: Dict[Edge, int] = {}
        for t in bad:
            for e in tri_edges(t):
                edge_count[e] = edge_count.get(e, 0) + 1
        for t in bad:
            remove(t)
        created: List[Tri] = []
        for e, count in edge_count.items():
            if count == 1:
                t = ccw_tuple(e[0], e[1], idx)
                add(t)
                created.append(t)
        if created:
            last = created[0]

    return [
        Triangle(*t) for t in triangles if t[0] < n and t[1] < n and t[2] < n
    ]


def _circumdistance(p: Point, all_pts: List[Point], t: Triangle) -> float:
    center = circumcenter(all_pts[t.a], all_pts[t.b], all_pts[t.c])
    if center is None:
        return math.inf
    return center.distance(p)


def scalar_voronoi(points: Sequence[Point]) -> List[VoronoiRegion]:
    """One Voronoi region per site, from the triangulation above."""
    tri = delaunay(points)
    pts = tri.points
    per_site = tri.triangles_of_site()

    # A site is interior iff its incident triangles form a closed fan:
    # every Delaunay edge at the site is shared by two incident triangles.
    regions: List[VoronoiRegion] = []
    for i, site in enumerate(pts):
        incident = per_site.get(i, [])
        if len(incident) < 3:
            regions.append(VoronoiRegion(site=site, closed=False))
            continue
        # Count, per neighbour edge (i, other), how many incident triangles
        # contain it; a closed fan uses each exactly twice.
        counts: Dict[int, int] = {}
        for t in incident:
            for v in t.vertices:
                if v != i:
                    counts[v] = counts.get(v, 0) + 1
        if any(c != 2 for c in counts.values()):
            regions.append(VoronoiRegion(site=site, closed=False))
            continue
        centers = []
        ok = True
        for t in incident:
            c = circumcenter(pts[t.a], pts[t.b], pts[t.c])
            if c is None:
                ok = False
                break
            centers.append(c)
        if not ok:
            regions.append(VoronoiRegion(site=site, closed=False))
            continue
        # Order circumcenters CCW around the site.
        centers.sort(key=lambda c: math.atan2(c.y - site.y, c.x - site.x))
        radii = tuple(c.distance(site) for c in centers)
        regions.append(
            VoronoiRegion(
                site=site,
                closed=True,
                vertices=tuple(centers),
                radii=radii,
            )
        )
    return regions
