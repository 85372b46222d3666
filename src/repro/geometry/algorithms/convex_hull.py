"""Andrew's monotone-chain convex hull."""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence

import numpy as np

from repro.geometry import vectorized
from repro.geometry.point import Point


def _cross(o: Point, a: Point, b: Point) -> float:
    return (a.x - o.x) * (b.y - o.y) - (a.y - o.y) * (b.x - o.x)


def convex_hull(points: Iterable[Point]) -> List[Point]:
    """Convex hull of a point set in counter-clockwise order.

    Collinear points on the hull boundary are dropped, so the result is the
    minimal vertex set. Degenerate inputs are handled gracefully: zero or one
    point returns the input; fully collinear input returns its two extremes.
    Vertices closer than ``EPS`` collapse into one: such a sliver is not a
    valid Polygon. The points become two coordinate columns and
    :func:`repro.geometry.vectorized.hull_rows` picks the rows.
    """
    pts: List[Point] = list(points)
    n = len(pts)
    rows = vectorized.hull_rows(
        np.fromiter([p.x for p in pts], dtype=np.float64, count=n),
        np.fromiter([p.y for p in pts], dtype=np.float64, count=n),
    )
    return [pts[r] for r in rows]


def hull_of_columns(xs, ys) -> List[Point]:
    """:func:`convex_hull` of the points given as two coordinate columns."""
    return [
        Point(float(xs[r]), float(ys[r])) for r in vectorized.hull_rows(xs, ys)
    ]


def point_in_convex_hull(p: Point, hull: Sequence[Point]) -> bool:
    """Closed containment test for a CCW convex hull.

    Tolerance scales with edge length: the hull collapses vertices
    within ``EPS`` of each other (see :func:`convex_hull`), which can
    leave an input point up to ~``EPS`` *outside* the cleaned boundary,
    and the cross product of that offset grows with the edge it is
    measured against. An absolute cutoff would reject such points for
    any edge longer than ~1.
    """
    from repro.geometry.common import EPS

    n = len(hull)
    if n == 0:
        return False
    if n == 1:
        return hull[0].almost_equals(p)
    if n == 2:
        from repro.geometry.segment import point_on_segment

        a, b = hull
        edge = math.hypot(b.x - a.x, b.y - a.y)
        return point_on_segment(p, a, b, eps=EPS * (2.0 + edge))
    for i in range(n):
        a = hull[i]
        b = hull[(i + 1) % n]
        edge = math.hypot(b.x - a.x, b.y - a.y)
        if _cross(a, b, p) < -EPS * (2.0 + edge):
            return False
    return True
