"""Closest pair of points."""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

import numpy as np

from repro.geometry import vectorized
from repro.geometry.point import Point

Pair = Tuple[Point, Point]


def closest_pair(points: Iterable[Point]) -> Optional[Pair]:
    """The pair of points at minimum L2 distance, or None for < 2 points.

    The points become two coordinate columns and
    :func:`repro.geometry.vectorized.closest_pair_rows` picks the rows:
    an x-sorted shifted-difference sweep, handing over to the classic
    O(n log n) divide and conquer when many points share an x. Duplicate
    points are allowed and trivially form a zero-distance closest pair.
    """
    pts: List[Point] = list(points)
    n = len(pts)
    rows = vectorized.closest_pair_rows(
        np.fromiter([p.x for p in pts], dtype=np.float64, count=n),
        np.fromiter([p.y for p in pts], dtype=np.float64, count=n),
    )
    return None if rows is None else (pts[rows[0]], pts[rows[1]])


def closest_pair_bruteforce(points: Iterable[Point]) -> Optional[Pair]:
    """O(n^2) reference implementation used as a test oracle."""
    pts = list(points)
    best_sq = float("inf")
    pair: Optional[Pair] = None
    for i, pi in enumerate(pts):
        for pj in pts[i + 1:]:
            d = pi.distance_sq(pj)
            if d < best_sq:
                best_sq = d
                pair = (pi, pj)
    return pair
