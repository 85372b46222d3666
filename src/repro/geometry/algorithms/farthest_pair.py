"""Farthest pair (diameter) via rotating calipers on the convex hull."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from repro.geometry.algorithms.convex_hull import convex_hull
from repro.geometry.point import Point

Pair = Tuple[Point, Point]


def farthest_pair(points: Iterable[Point]) -> Optional[Pair]:
    """The pair of points at maximum L2 distance, or None for < 2 points.

    The two farthest points must both lie on the convex hull, so the hull is
    computed first and antipodal pairs are scanned with rotating calipers in
    O(h) time.
    """
    pts = list(points)
    pair = farthest_pair_on_hull(convex_hull(pts))
    if pair is None and len(set(pts)) >= 2:
        # Degenerate inputs (near-duplicates, collinear clusters) can
        # collapse the hull below two vertices even though the input has
        # two distinct points; the O(n^2) scan still has an answer.
        return farthest_pair_bruteforce(pts)
    return pair


def farthest_pair_on_hull(hull: List[Point]) -> Optional[Pair]:
    """Rotating calipers over an already-computed CCW convex hull."""
    n = len(hull)
    if n < 2:
        return None
    if n == 2:
        return (hull[0], hull[1])

    def area2(a: Point, b: Point, c: Point) -> float:
        return abs(
            (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)
        )

    best_sq = -1.0
    pair: Optional[Pair] = None
    j = 1
    for i in range(n):
        ni = (i + 1) % n
        # Advance j while the triangle area keeps growing: j is then the
        # vertex farthest from edge (i, i+1).
        while area2(hull[i], hull[ni], hull[(j + 1) % n]) > area2(
            hull[i], hull[ni], hull[j]
        ):
            j = (j + 1) % n
        for candidate in (hull[i], hull[ni]):
            d = candidate.distance_sq(hull[j])
            if d > best_sq:
                best_sq = d
                pair = (candidate, hull[j])
    return pair


def farthest_pair_bruteforce(points: Iterable[Point]) -> Optional[Pair]:
    """O(n^2) reference implementation used as a test oracle."""
    pts = list(points)
    if len(set(pts)) < 2:
        return None
    best_sq = -1.0
    pair: Optional[Pair] = None
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[i].distance_sq(pts[j])
            if d > best_sq:
                best_sq = d
                pair = (pts[i], pts[j])
    return pair
