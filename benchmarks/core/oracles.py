"""NumPy brute-force oracles over the raw generated records.

Each shares nothing with the system under test beyond the record classes:
the answers are recomputed from coordinate columns the harness builds
itself. Predicates are closed on every side, as the library's are, and
distances are compared squared (``dx*dx + dy*dy`` rounds identically in
NumPy and in Python floats).
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from repro.geometry import Rectangle


class PointColumns:
    """Coordinate columns of a point list, plus the window builders."""

    def __init__(self, points: Sequence[Any]):
        self.records = list(points)
        self.xs = np.fromiter((p.x for p in points), float, len(points))
        self.ys = np.fromiter((p.y for p in points), float, len(points))

    def in_window(self, w: Rectangle) -> List[Any]:
        mask = ((self.xs >= w.x1) & (self.xs <= w.x2)
                & (self.ys >= w.y1) & (self.ys <= w.y2))
        return [self.records[i] for i in np.flatnonzero(mask)]

    def nearest(self, x: float, y: float, k: int) -> List[Any]:
        dx = self.xs - x
        dy = self.ys - y
        order = np.argsort(dx * dx + dy * dy, kind="stable")[:k]
        return [self.records[i] for i in order]

    def window_holding(self, centre: int, count: int) -> Rectangle:
        """The square around record ``centre`` holding ``count`` records.

        Windows are sized by selectivity, not by area, so that every seed
        gives the same result sizes and the timings compare across seeds.
        """
        cx, cy = float(self.xs[centre]), float(self.ys[centre])
        reach = np.maximum(np.abs(self.xs - cx), np.abs(self.ys - cy))
        half = float(np.partition(reach, count - 1)[count - 1])
        return Rectangle(cx - half, cy - half, cx + half, cy + half)


class RectColumns:
    """MBR columns of a rectangle list."""

    def __init__(self, rects: Sequence[Any]):
        self.records = list(rects)
        n = len(rects)
        self.x1 = np.fromiter((r.x1 for r in rects), float, n)
        self.y1 = np.fromiter((r.y1 for r in rects), float, n)
        self.x2 = np.fromiter((r.x2 for r in rects), float, n)
        self.y2 = np.fromiter((r.y2 for r in rects), float, n)

    def in_window(self, w: Rectangle) -> List[Any]:
        mask = ((self.x1 <= w.x2) & (self.x2 >= w.x1)
                & (self.y1 <= w.y2) & (self.y2 >= w.y1))
        return [self.records[i] for i in np.flatnonzero(mask)]

    def window_holding(self, centre: int, count: int) -> Rectangle:
        cx = float(self.x1[centre] + self.x2[centre]) / 2
        cy = float(self.y1[centre] + self.y2[centre]) / 2
        gap_x = np.maximum(np.maximum(self.x1 - cx, cx - self.x2), 0.0)
        gap_y = np.maximum(np.maximum(self.y1 - cy, cy - self.y2), 0.0)
        reach = np.maximum(gap_x, gap_y)
        half = float(np.partition(reach, count - 1)[count - 1])
        return Rectangle(cx - half, cy - half, cx + half, cy + half)

    def join(self, other: "RectColumns") -> List[Tuple[Any, Any]]:
        """Every intersecting (self, other) pair, one row block at a time."""
        pairs: List[Tuple[Any, Any]] = []
        for lo in range(0, len(self.records), 512):
            hi = lo + 512
            mask = (
                (self.x1[lo:hi, None] <= other.x2[None, :])
                & (self.x2[lo:hi, None] >= other.x1[None, :])
                & (self.y1[lo:hi, None] <= other.y2[None, :])
                & (self.y2[lo:hi, None] >= other.y1[None, :])
            )
            for i, j in zip(*np.nonzero(mask)):
                pairs.append((self.records[lo + i], other.records[j]))
        return pairs


def knn_join(left: PointColumns, right: PointColumns, k: int):
    """For every left point, its k nearest right points."""
    out = []
    for lo in range(0, len(left.records), 256):
        dx = left.xs[lo:lo + 256, None] - right.xs[None, :]
        dy = left.ys[lo:lo + 256, None] - right.ys[None, :]
        nearest = np.argpartition(dx * dx + dy * dy, k - 1, axis=1)[:, :k]
        for row, picks in enumerate(nearest):
            out.append((left.records[lo + row],
                        [right.records[j] for j in picks]))
    return out


def closest_pair_distance_sq(points: PointColumns) -> float:
    """Smallest squared distance between two records.

    Sweeps the x-sorted points at growing lags; once even the smallest
    x-gap at a lag reaches the best distance, no later lag can beat it.
    """
    order = np.argsort(points.xs, kind="stable")
    xs, ys = points.xs[order], points.ys[order]
    best = np.inf
    for lag in range(1, len(xs)):
        dx = xs[lag:] - xs[:-lag]
        if float(dx.min()) ** 2 >= best:
            break
        dy = ys[lag:] - ys[:-lag]
        best = min(best, float((dx * dx + dy * dy).min()))
    return best
