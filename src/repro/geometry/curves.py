"""Space-filling curves over a ``2^order x 2^order`` integer grid.

The curve positions serve two layers: the Z-order and Hilbert
partitioners of the index, and the Hilbert insertion order of the
Delaunay triangulation. Every function is branch-free integer arithmetic,
so one code path serves a pair of ints and two int64 arrays.
"""

from __future__ import annotations

CURVE_ORDER = 16  # bits per dimension


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

    ``rx``/``ry`` are the 0/1 quadrant bits, ``flip`` and ``swap`` the
    0/1 conditions of the quadrant rotation.
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
