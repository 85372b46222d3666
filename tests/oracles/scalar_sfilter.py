"""The presence filter's bits set one at a time, kept as the oracle.

This is ``PresenceFilter.build``'s marking loop before it rasterised cells
into a NumPy grid: every tile a cell's MBR touches sets its bit
``gy * nx + gx`` (least significant bit first) in a ``bytearray``.
"""

from __future__ import annotations

from typing import Sequence

from repro.index.sfilter import DEFAULT_RESOLUTION, PresenceFilter


def scalar_bits(cells: Sequence, resolution: int = DEFAULT_RESOLUTION):
    """The filter's bitmap over ``cells``, marked bit by bit."""
    rects = [c.mbr for c in cells]
    bounds = rects[0]
    for r in rects[1:]:
        bounds = bounds.union(r)
    nx = ny = max(1, resolution)
    filt = PresenceFilter(bounds, nx, ny, bytearray((nx * ny + 7) // 8))
    for r in rects:
        x_lo, x_hi = filt._span_x(r.x1, r.x2)
        y_lo, y_hi = filt._span_y(r.y1, r.y2)
        for gy in range(y_lo, y_hi + 1):
            base = gy * nx
            for gx in range(x_lo, x_hi + 1):
                bit = base + gx
                filt.bits[bit >> 3] |= 1 << (bit & 7)
    return filt.bits
