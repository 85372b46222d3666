"""Sort-Tile-Recursive partitioning: the R-tree and R+-tree indexes.

STR computes cell boundaries by sorting the sample into vertical slices and
cutting each slice horizontally into equal-count tiles, giving near
equal-sized partitions even under heavy skew.

Two variants, as in SpatialHadoop:

* :class:`StrPartitioner` ("R-tree index"): every record goes to exactly one
  cell — the one containing its centre — so partition *contents* MBRs may
  overlap. No replication, no duplicate avoidance needed.
* :class:`StrPlusPartitioner` ("R+-tree index"): cell boundaries are
  enforced as disjoint partitions and records overlapping several cells are
  replicated to each.
"""

from __future__ import annotations

import bisect
import math
from typing import List

import numpy as np

from repro.geometry import Point, Rectangle
from repro.geometry.vectorized import expand_ranges
from repro.index.partitioners.base import (
    Partitioner,
    Sample,
    expand_space,
    sample_columns,
)


class StrPartitioner(Partitioner):
    """STR tiling, one cell per record (overlapping partitions)."""

    technique = "str"
    disjoint = False

    def __init__(
        self,
        space: Rectangle,
        x_bounds: List[float],
        y_bounds_per_slice: List[List[float]],
    ):
        # ``x_bounds`` are the interior slice boundaries (len = slices - 1);
        # ``y_bounds_per_slice[i]`` the interior tile boundaries of slice i.
        self.space = expand_space(space)
        self._x_bounds = x_bounds
        self._y_bounds = y_bounds_per_slice
        self._cell_offsets = [0]
        for bounds in y_bounds_per_slice:
            self._cell_offsets.append(self._cell_offsets[-1] + len(bounds) + 1)

    @classmethod
    def create(
        cls, sample: Sample, num_cells: int, space: Rectangle
    ) -> "StrPartitioner":
        xs, ys = sample_columns(sample)
        num_cells = max(1, num_cells)
        num_slices = max(1, math.ceil(math.sqrt(num_cells)))
        tiles_per_slice = max(1, math.ceil(num_cells / num_slices))

        if not len(xs):
            return cls(space, [], [[]])

        # Slices cut the sample sorted by (x, y); each slice is then
        # sorted by y alone (stable), and tiles cut that order.
        order = np.lexsort((ys, xs))
        xs, ys = xs[order], ys[order]
        per_slice = math.ceil(len(xs) / num_slices)
        x_bounds: List[float] = xs[per_slice::per_slice].tolist()
        y_bounds_per_slice: List[List[float]] = []
        for s in range(0, len(ys), per_slice):
            by_y = np.sort(ys[s : s + per_slice], kind="stable")
            per_tile = math.ceil(len(by_y) / tiles_per_slice)
            y_bounds_per_slice.append(by_y[per_tile::per_tile].tolist())
        return cls(space, x_bounds, y_bounds_per_slice)

    # ------------------------------------------------------------------
    def num_cells(self) -> int:
        return self._cell_offsets[-1]

    def _slice_of(self, x: float) -> int:
        return bisect.bisect_right(self._x_bounds, x)

    def _tile_of(self, slice_index: int, y: float) -> int:
        return bisect.bisect_right(self._y_bounds[slice_index], y)

    def assign_point(self, p: Point) -> int:
        s = self._slice_of(p.x)
        return self._cell_offsets[s] + self._tile_of(s, p.y)

    def _slices(self, xs):
        return np.searchsorted(self._x_bounds, xs, side="right")

    def _tiles(self, slices, ys):
        tiles = np.empty(len(ys), dtype=np.intp)
        for s in np.unique(slices).tolist():
            in_slice = slices == s
            tiles[in_slice] = np.searchsorted(
                self._y_bounds[s], ys[in_slice], side="right"
            )
        return tiles

    def _point_cells(self, xs, ys):
        slices = self._slices(xs)
        return np.asarray(self._cell_offsets)[slices] + self._tiles(slices, ys)

    def cell_rect(self, cell_id: int) -> Rectangle:
        s = bisect.bisect_right(self._cell_offsets, cell_id) - 1
        t = cell_id - self._cell_offsets[s]
        if not (0 <= s < len(self._y_bounds)) or t > len(self._y_bounds[s]):
            raise KeyError(f"no such cell: {cell_id}")
        x1 = self.space.x1 if s == 0 else self._x_bounds[s - 1]
        x2 = self.space.x2 if s == len(self._x_bounds) else self._x_bounds[s]
        bounds = self._y_bounds[s]
        y1 = self.space.y1 if t == 0 else bounds[t - 1]
        y2 = self.space.y2 if t == len(bounds) else bounds[t]
        return Rectangle(x1, y1, x2, y2)


class StrPlusPartitioner(StrPartitioner):
    """STR tiling with enforced disjoint cells and replication."""

    technique = "str+"
    disjoint = True

    def overlapping_cells(self, mbr: Rectangle) -> List[int]:
        s1 = self._slice_of(mbr.x1)
        s2 = self._slice_of(mbr.x2)
        cells: List[int] = []
        for s in range(s1, s2 + 1):
            t1 = self._tile_of(s, mbr.y1)
            t2 = self._tile_of(s, mbr.y2)
            cells.extend(self._cell_offsets[s] + t for t in range(t1, t2 + 1))
        return cells

    def _overlapping_cells(self, x1, y1, x2, y2):
        owner, slices = expand_ranges(self._slices(x1), self._slices(x2))
        pair, tiles = expand_ranges(
            self._tiles(slices, y1[owner]), self._tiles(slices, y2[owner])
        )
        return owner[pair], np.asarray(self._cell_offsets)[slices[pair]] + tiles
