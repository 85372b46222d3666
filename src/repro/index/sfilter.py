"""sFilter-style presence bitmap over the global index.

LocationSpark's sFilter answers "can this region possibly contain data?"
before the query planner touches any partition metadata. The equivalent
here is a coarse occupancy grid over the union of all partition MBRs:
one bit per grid tile, set when any partition's boundary rectangle
touches the tile. :meth:`PresenceFilter.may_overlap` then rejects query
regions that land only on empty tiles with a handful of integer ops —
in particular before :meth:`GlobalIndex.overlapping` walks the cell list
and before the SpatialFileSplitter iterates block metadata.

The filter is conservative by construction (tiles are marked from whole
MBRs, rasterized outward), so a False answer is *exact*: no cell MBR can
intersect the region. That makes it safe to consult unconditionally —
answers and counters cannot move, only work is saved.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Rectangle

#: Default grid resolution (bits per axis): 64x64 = 512 bytes of bitmap.
DEFAULT_RESOLUTION = 64


class PresenceFilter:
    """A bitset over an ``nx`` x ``ny`` grid covering ``bounds``."""

    __slots__ = ("bounds", "nx", "ny", "bits")

    def __init__(self, bounds: Rectangle, nx: int, ny: int, bits: bytearray):
        self.bounds = bounds
        self.nx = nx
        self.ny = ny
        self.bits = bits

    # bytearray + __slots__ pickle fine via the default protocol-2 path,
    # but be explicit so the layout is stable across Python versions.
    def __getstate__(self):
        return (self.bounds, self.nx, self.ny, bytes(self.bits))

    def __setstate__(self, state):
        bounds, nx, ny, bits = state
        self.bounds = bounds
        self.nx = nx
        self.ny = ny
        self.bits = bytearray(bits)

    def __eq__(self, other):
        # Value equality keeps dataclasses embedding a filter (the global
        # index) comparable by value.
        if not isinstance(other, PresenceFilter):
            return NotImplemented
        return (
            self.bounds == other.bounds
            and self.nx == other.nx
            and self.ny == other.ny
            and self.bits == other.bits
        )

    @classmethod
    def build(
        cls, cells: Sequence, resolution: int = DEFAULT_RESOLUTION
    ) -> Optional["PresenceFilter"]:
        """Rasterize every cell's boundary MBR; None for an empty index."""
        rects: List[Rectangle] = [c.mbr for c in cells]
        if not rects:
            return None
        bounds = rects[0]
        for r in rects[1:]:
            bounds = bounds.union(r)
        nx = ny = max(1, resolution)
        filt = cls(bounds, nx, ny, bytearray())
        # Tile (gx, gy) is bit gy * nx + gx, least significant bit first.
        grid = np.zeros((ny, nx), dtype=bool)
        for r in rects:
            x_lo, x_hi = filt._span_x(r.x1, r.x2)
            y_lo, y_hi = filt._span_y(r.y1, r.y2)
            grid[y_lo : y_hi + 1, x_lo : x_hi + 1] = True
        filt.bits = bytearray(
            np.packbits(grid.ravel(), bitorder="little").tobytes()
        )
        return filt

    # ------------------------------------------------------------------
    def _span_x(self, lo: float, hi: float) -> Tuple[int, int]:
        return self._span(lo, hi, self.bounds.x1, self.bounds.width, self.nx)

    def _span_y(self, lo: float, hi: float) -> Tuple[int, int]:
        return self._span(lo, hi, self.bounds.y1, self.bounds.height, self.ny)

    @staticmethod
    def _span(lo: float, hi: float, origin: float, extent: float, n: int):
        """Grid-tile index range touched by ``[lo, hi]``, clamped.

        Both marking and probing go through this same mapping, so any
        point shared by a cell MBR and a query region lands on the same
        tile for both — the conservative guarantee.
        """
        if extent <= 0:
            return 0, 0
        scale = n / extent
        if scale == math.inf:  # a subnormal extent: one tile, as for none
            return 0, 0
        # Clamp before truncating: the same tiles as truncating first,
        # and the cast stays defined when a far query overflows to inf.
        g_lo = (lo - origin) * scale
        g_hi = (hi - origin) * scale
        g_lo = 0 if g_lo < 0 else n - 1 if g_lo > n - 1 else int(g_lo)
        g_hi = 0 if g_hi < 0 else n - 1 if g_hi > n - 1 else int(g_hi)
        return g_lo, g_hi

    def may_overlap(self, rect: Rectangle) -> bool:
        """False only when *no* indexed cell can intersect ``rect``."""
        if not self.bounds.intersects(rect):
            return False
        x_lo, x_hi = self._span_x(rect.x1, rect.x2)
        y_lo, y_hi = self._span_y(rect.y1, rect.y2)
        bits = self.bits
        nx = self.nx
        for gy in range(y_lo, y_hi + 1):
            base = gy * nx
            for gx in range(x_lo, x_hi + 1):
                bit = base + gx
                if bits[bit >> 3] & (1 << (bit & 7)):
                    return True
        return False

    @property
    def occupancy(self) -> float:
        """Fraction of grid tiles marked (for diagnostics/tests)."""
        total = self.nx * self.ny
        set_bits = sum(bin(b).count("1") for b in self.bits)
        return set_bits / total if total else 0.0
