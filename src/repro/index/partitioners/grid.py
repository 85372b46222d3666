"""Uniform grid partitioning.

The simplest SpatialHadoop index: the space is tiled by a ``g x g`` grid of
equal cells. Works well for uniform data and degrades under skew (cells in
dense areas overflow) — exactly the trade-off experiment E5 quantifies.
"""

from __future__ import annotations

import math
from typing import List

import numpy as np

from repro.geometry import Point, Rectangle
from repro.geometry.vectorized import expand_ranges
from repro.index.partitioners.base import Partitioner, Sample, expand_space


class GridPartitioner(Partitioner):
    """Uniform grid over the file MBR; disjoint with replication."""

    technique = "grid"
    disjoint = True

    def __init__(self, space: Rectangle, grid_size: int):
        if grid_size <= 0:
            raise ValueError("grid size must be positive")
        self.space = expand_space(space)
        self.grid_size = grid_size
        self._cell_w = self.space.width / grid_size
        self._cell_h = self.space.height / grid_size

    @classmethod
    def create(
        cls, sample: Sample, num_cells: int, space: Rectangle
    ) -> "GridPartitioner":
        """The sample is ignored — the grid depends only on the space MBR."""
        del sample
        return cls(space, grid_size=max(1, math.ceil(math.sqrt(num_cells))))

    # ------------------------------------------------------------------
    def num_cells(self) -> int:
        return self.grid_size * self.grid_size

    def _column(self, x: float) -> int:
        col = int((x - self.space.x1) / self._cell_w)
        return min(max(col, 0), self.grid_size - 1)

    def _row(self, y: float) -> int:
        row = int((y - self.space.y1) / self._cell_h)
        return min(max(row, 0), self.grid_size - 1)

    def assign_point(self, p: Point) -> int:
        return self._row(p.y) * self.grid_size + self._column(p.x)

    def overlapping_cells(self, mbr: Rectangle) -> List[int]:
        c1, c2 = self._column(mbr.x1), self._column(mbr.x2)
        r1, r2 = self._row(mbr.y1), self._row(mbr.y2)
        return [
            r * self.grid_size + c
            for r in range(r1, r2 + 1)
            for c in range(c1, c2 + 1)
        ]

    def _axis_cells(self, values, origin: float, step: float):
        # Clamp before truncating: both orders give the same cell, and
        # the cast stays defined for any finite quotient.
        quotient = (values - origin) / step
        return np.clip(quotient, 0.0, self.grid_size - 1).astype(np.intp)

    def _point_cells(self, xs, ys):
        return (
            self._axis_cells(ys, self.space.y1, self._cell_h) * self.grid_size
            + self._axis_cells(xs, self.space.x1, self._cell_w)
        )

    def _overlapping_cells(self, x1, y1, x2, y2):
        owner, rows = expand_ranges(
            self._axis_cells(y1, self.space.y1, self._cell_h),
            self._axis_cells(y2, self.space.y1, self._cell_h),
        )
        pair, cols = expand_ranges(
            self._axis_cells(x1, self.space.x1, self._cell_w)[owner],
            self._axis_cells(x2, self.space.x1, self._cell_w)[owner],
        )
        return owner[pair], rows[pair] * self.grid_size + cols

    def cell_rect(self, cell_id: int) -> Rectangle:
        row, col = divmod(cell_id, self.grid_size)
        if not (0 <= row < self.grid_size):
            raise KeyError(f"no such cell: {cell_id}")
        return Rectangle(
            self.space.x1 + col * self._cell_w,
            self.space.y1 + row * self._cell_h,
            self.space.x1 + (col + 1) * self._cell_w,
            self.space.y1 + (row + 1) * self._cell_h,
        )
