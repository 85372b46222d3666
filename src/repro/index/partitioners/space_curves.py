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
from typing import Callable, List

import numpy as np

from repro.geometry import Point, Rectangle
from repro.geometry.curves import CURVE_ORDER, hilbert_value, z_value
from repro.index.partitioners.base import (
    Partitioner,
    Sample,
    expand_space,
    sample_columns,
)

_CURVE_SIDE = 1 << CURVE_ORDER


class _CurvePartitioner(Partitioner):
    """Shared machinery of the two curve-based techniques."""

    disjoint = False
    _curve: Callable  # grid coordinates (ints or int64 arrays) -> position

    def __init__(self, space: Rectangle, split_values: List[int]):
        self.space = expand_space(space)
        self._splits = split_values  # interior boundaries, sorted

    @classmethod
    def create(cls, sample: Sample, num_cells: int, space: Rectangle):
        self = cls(space, [])
        values = np.sort(self._curve_values(*sample_columns(sample))).tolist()
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
