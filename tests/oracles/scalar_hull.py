"""Andrew's monotone-chain convex hull over Point records, kept as the oracle.

This is ``repro.geometry.algorithms.convex_hull`` as it was before the
chain moved onto coordinate columns (``repro.geometry.vectorized.
hull_rows``): the points are sorted and deduplicated as dataclasses and
the chain runs over all of them.
"""

from __future__ import annotations

from typing import Iterable, List

from repro.geometry.point import Point


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def convex_hull(points: Iterable[Point]) -> List[Point]:
    """Convex hull of a point set in counter-clockwise order.

    Collinear points on the hull boundary are dropped, so the result is the
    minimal vertex set. Degenerate inputs are handled gracefully: zero or one
    point returns the input; fully collinear input returns its two extremes.
    """
    pts: List[Point] = sorted(set(points))
    if len(pts) <= 2:
        return pts

    lower: List[Point] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)

    upper: List[Point] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)

    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # all points collinear -> keep the two extremes
        return [pts[0], pts[-1]]

    # Exact duplicates were removed up front, but points closer than EPS
    # survive the sort and can land next to each other on the hull (cyclic
    # neighbours included). Such a sliver of vertices is not representable
    # as a valid Polygon, so collapse near-duplicates here.
    cleaned: List[Point] = []
    for p in hull:
        if not cleaned or not cleaned[-1].almost_equals(p):
            cleaned.append(p)
    while len(cleaned) >= 2 and cleaned[0].almost_equals(cleaned[-1]):
        cleaned.pop()
    return cleaned

