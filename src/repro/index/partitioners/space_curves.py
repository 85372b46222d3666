"""Space-filling-curve partitioning: Z-order and Hilbert order.

Both techniques quantise each record's centre onto a ``2^16 x 2^16`` grid,
map it to a position on the curve, and cut the sorted sample into
equal-count runs. Every record maps to exactly one cell (no replication),
but the spatial footprint of a run — especially a Z-order run — can
overlap other runs, so these indexes are *overlapping*.
"""

from __future__ import annotations

import bisect
import math
from typing import Callable, List, Sequence

from repro.geometry import Point, Rectangle
from repro.index.partitioners.base import Partitioner, expand_space, np

CURVE_ORDER = 16  # bits per dimension
_CURVE_SIDE = 1 << CURVE_ORDER


def _interleave(v):
    """Spread the low 16 bits of ``v`` (an int or int array) to even bits."""
    v = v & 0xFFFF
    v = (v | (v << 8)) & 0x00FF00FF
    v = (v | (v << 4)) & 0x0F0F0F0F
    v = (v | (v << 2)) & 0x33333333
    v = (v | (v << 1)) & 0x55555555
    return v


def z_value(ix, iy):
    """Morton (Z-order) code of grid coordinates (ints or int arrays)."""
    return _interleave(ix) | (_interleave(iy) << 1)


def hilbert_value(ix, iy, order: int = CURVE_ORDER):
    """Hilbert-curve position of grid coordinates (classic xy2d).

    Branch-free integer arithmetic, so the same code serves one pair of
    ints and two int64 arrays: ``rx``/``ry`` are the 0/1 quadrant bits,
    ``flip`` and ``swap`` the 0/1 conditions of the quadrant rotation.
    """
    x, y = ix, iy
    d = 0 * ix
    s = 1 << (order - 1)
    while s > 0:
        rx = (x & s) // s
        ry = (y & s) // s
        d = d + s * s * ((3 * rx) ^ ry)
        flip = rx * (1 - ry)
        x = x + flip * (s - 1 - 2 * x)
        y = y + flip * (s - 1 - 2 * y)
        swap = 1 - ry
        x, y = x + swap * (y - x), y + swap * (x - y)
        s //= 2
    return d


class _CurvePartitioner(Partitioner):
    """Shared machinery of the two curve-based techniques."""

    disjoint = False
    _curve: Callable  # grid coordinates (ints or int64 arrays) -> position

    def __init__(self, space: Rectangle, split_values: List[int]):
        self.space = expand_space(space)
        self._splits = split_values  # interior boundaries, sorted

    @classmethod
    def create(
        cls, sample: Sequence[Point], num_cells: int, space: Rectangle
    ):
        self = cls(space, [])
        if np is None:
            values = sorted(self._value_of(p) for p in sample)
        else:
            xs, ys = (
                np.array([getattr(p, axis) for p in sample], dtype=float)
                for axis in "xy"
            )
            values = np.sort(self._curve_values(xs, ys)).tolist()
        num_cells = max(1, num_cells)
        if values and num_cells > 1:
            per_cell = math.ceil(len(values) / num_cells)
            self._splits = [
                values[i] for i in range(per_cell, len(values), per_cell)
            ]
        return self

    # ------------------------------------------------------------------
    def _quantize(self, p: Point) -> tuple:
        fx = (p.x - self.space.x1) / self.space.width
        fy = (p.y - self.space.y1) / self.space.height
        ix = min(max(int(fx * _CURVE_SIDE), 0), _CURVE_SIDE - 1)
        iy = min(max(int(fy * _CURVE_SIDE), 0), _CURVE_SIDE - 1)
        return ix, iy

    def _value_of(self, p: Point) -> int:
        ix, iy = self._quantize(p)
        return type(self)._curve(ix, iy)

    def num_cells(self) -> int:
        return len(self._splits) + 1

    def assign_point(self, p: Point) -> int:
        return bisect.bisect_right(self._splits, self._value_of(p))

    def _curve_values(self, xs, ys):
        """Array form of :meth:`_value_of`: clamp, truncate, interleave."""
        space = self.space
        ix, iy = (
            np.clip(fraction * _CURVE_SIDE, 0, _CURVE_SIDE - 1).astype(np.int64)
            for fraction in (
                (xs - space.x1) / space.width, (ys - space.y1) / space.height
            )
        )
        return type(self)._curve(ix, iy)

    def _point_cells(self, xs, ys):
        return np.searchsorted(
            np.asarray(self._splits, dtype=np.int64),
            self._curve_values(xs, ys),
            side="right",
        )


class ZCurvePartitioner(_CurvePartitioner):
    """Morton-order runs; overlapping partitions."""

    technique = "zcurve"
    _curve = staticmethod(z_value)


class HilbertCurvePartitioner(_CurvePartitioner):
    """Hilbert-order runs; overlapping partitions with better locality."""

    technique = "hilbert"
    _curve = staticmethod(hilbert_value)
