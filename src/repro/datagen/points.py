"""Point dataset generators for every evaluation distribution.

A sampler maps ``(rng, space, n, extra)`` to columns ``(xs, ys, more)``:
the ``n`` records' coordinates, then ``extra`` further ``rng.random()``
draws per record as an ``(n, extra)`` float64 matrix, taken from the
stream in the order the per-record draw takes them (a record's
coordinates, then its extras). Rectangles spend the extras on their
width and height.

``uniform``, ``gaussian`` and ``circular`` draw in bulk (:func:`_draw`)
and compute on float64 columns; ``correlated``, ``anti_correlated`` and
``diagonal`` loop per record, because a ``gauss`` pair spans two records
there and ``betavariate`` rejects.

Every value equals the per-record draw's bit for bit, and keeps its
Python type: see :func:`generate_points`.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.geometry import Point, Rectangle

#: ``(xs, ys, more)``: float64 columns, or object columns where a value
#: is not a float (an int corner of the space that a clamp picked, or a
#: per-record draw's int arithmetic).
Columns = Tuple[np.ndarray, np.ndarray, np.ndarray]
Sampler = Callable[[random.Random, Rectangle, int, int], Columns]

#: Records per sampler call: bounds the transient columns and buffers.
CHUNK = 1 << 16

_TWOPI = 2.0 * math.pi  # random.TWOPI
#: Fewer draws than this are cheaper one ``random()`` at a time: a
#: one-record call (a polygon centre) costs ~4 us more through the bulk
#: path's buffer and NumPy set-up (13.6 vs 17.9 us for a uniform point).
_SMALL = 32


def _draw(rng: random.Random, n: int, k: int) -> np.ndarray:
    """An ``(n, k)`` matrix of successive ``rng.random()`` values, in row
    order, drawn in one call.

    ``getrandbits(64 * n * k)`` consumes ``2 * n * k`` 32-bit Mersenne
    Twister outputs, least-significant word first; ``random()`` builds
    each double from two consecutive outputs exactly like this, so the
    values and the generator's final state are the per-call ones.
    """
    count = n * k
    if count < _SMALL:
        return np.array([rng.random() for _ in range(count)]).reshape(n, k)
    raw = rng.getrandbits(64 * count).to_bytes(8 * count, "little")
    words = np.frombuffer(raw, dtype="<u4")
    u = ((words[0::2] >> 5) * 67108864.0 + (words[1::2] >> 6)) * (
        1.0 / 9007199254740992.0)
    return u.reshape(n, k)


def chunked(sampler: Sampler, rng: random.Random, space: Rectangle, n: int,
            extra: int, build: Callable[..., Iterable]) -> list:
    """``build(xs, ys, more)`` over ``n`` records, :data:`CHUNK` records
    per sampler call: the stream is read in the same order as in one."""
    out: list = []
    for start in range(0, n, CHUNK):
        out.extend(build(*sampler(rng, space, min(CHUNK, n - start), extra)))
    return out


def _scaled(u: np.ndarray, a: float, b: float) -> np.ndarray:
    """``rng.uniform(a, b)`` for every draw in ``u``: ``a + (b - a) * u``."""
    return float(a) + float(b - a) * u


def _libm(fn: Callable[[float], float], col: np.ndarray) -> np.ndarray:
    """``fn`` of every value through the ``math`` module.

    NumPy's ``log`` / ``cos`` / ``sin`` are not libm's and differ in the
    last bit on some arguments; ``sqrt`` and the arithmetic are exactly
    rounded in both, so only these go through here.
    """
    return np.fromiter(map(fn, col.tolist()), dtype=float, count=len(col))


def _exact(bound: float):
    """``bound`` as a ``np.where`` branch that keeps its Python type."""
    return bound if type(bound) is float else np.array(bound, dtype=object)


def _clamp(v: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """``min(max(v, lo), hi)`` per value, as the builtins pick: a bound
    is taken only where it is strictly beyond ``v``, and taken as is."""
    v = np.where(lo > v, _exact(lo), v)
    return np.where(hi < v, _exact(hi), v)


def _column(values: Sequence[float]) -> np.ndarray:
    """A per-record loop's values as a column of the same objects."""
    floats = set(map(type, values)) <= {float}
    return np.array(values, dtype=float if floats else object)


def _uniform(rng: random.Random, space: Rectangle, n: int,
             extra: int) -> Columns:
    u = _draw(rng, n, 2 + extra)
    return (_scaled(u[:, 0], space.x1, space.x2),
            _scaled(u[:, 1], space.y1, space.y2), u[:, 2:])


def _gaussian(rng: random.Random, space: Rectangle, n: int,
              extra: int) -> Columns:
    """``rng.gauss`` per axis, sigma = extent / 6: one Box-Muller pair
    per record, x from its cosine and y from the cached sine. Holds while
    ``rng`` has no half-used pair cached, as a fresh generator and one
    after whole gaussian records have none."""
    u = _draw(rng, n, 2 + extra)
    x2pi = u[:, 0] * _TWOPI
    g2rad = np.sqrt(-2.0 * _libm(math.log, 1.0 - u[:, 1]))
    c = space.center
    sx, sy = space.width / 6.0, space.height / 6.0
    xs = c.x + _libm(math.cos, x2pi) * g2rad * sx
    ys = c.y + _libm(math.sin, x2pi) * g2rad * sy
    return (_clamp(xs, space.x1, space.x2), _clamp(ys, space.y1, space.y2),
            u[:, 2:])


def _circular(rng: random.Random, space: Rectangle, n: int,
              extra: int) -> Columns:
    """Points on a thin annulus: maximises the convex hull size."""
    u = _draw(rng, n, 2 + extra)
    angle = _scaled(u[:, 0], 0, 2 * math.pi)
    radius = min(space.width, space.height) / 2.0
    r = radius * _scaled(u[:, 1], 0.95, 1.0)
    c = space.center
    xs = c.x + r * _libm(math.cos, angle)
    ys = c.y + r * _libm(math.sin, angle)
    return (_clamp(xs, space.x1, space.x2), _clamp(ys, space.y1, space.y2),
            u[:, 2:])


def _clamp1(v: float, lo: float, hi: float) -> float:
    return min(max(v, lo), hi)


def _per_record(
    point: Callable[[random.Random, float, float, float, float],
                    Tuple[float, float]],
) -> Sampler:
    """A sampler that draws one record at a time: ``point(rng, x1, y1,
    width, height)`` gives its coordinates, then its extras follow."""
    def sampler(rng: random.Random, space: Rectangle, n: int,
                extra: int) -> Columns:
        x1, y1, w, h = space.x1, space.y1, space.width, space.height
        draw = rng.random
        if extra:
            rows = [point(rng, x1, y1, w, h)
                    + tuple([draw() for _ in range(extra)])
                    for _ in range(n)]
        else:
            rows = [point(rng, x1, y1, w, h) for _ in range(n)]
        cols = list(zip(*rows)) or [()] * (2 + extra)
        more = np.array(cols[2:], dtype=float).T.reshape(n, extra)
        return _column(cols[0]), _column(cols[1]), more
    sampler.__doc__ = point.__doc__
    return sampler


def _correlated(rng, x1, y1, w, h):
    """Points hugging the main diagonal: the skyline best case."""
    t = rng.random()
    jitter = rng.gauss(0, 0.05)
    return (x1 + _clamp1(t + jitter, 0, 1) * w,
            y1 + _clamp1(t - jitter, 0, 1) * h)


def _anti_correlated(rng, x1, y1, w, h):
    """Points hugging the anti-diagonal: the skyline worst case."""
    t = rng.random()
    jitter = rng.gauss(0, 0.05)
    return (x1 + _clamp1(t + jitter, 0, 1) * w,
            y1 + _clamp1(1 - t + jitter, 0, 1) * h)


def _diagonal(rng, x1, y1, w, h):
    """A dense band along the diagonal (heavy 1-D skew)."""
    t = rng.betavariate(2, 2)
    off = rng.gauss(0, 0.02)
    return (x1 + _clamp1(t + off, 0, 1) * w, y1 + _clamp1(t, 0, 1) * h)


DISTRIBUTIONS: Dict[str, Sampler] = {
    "uniform": _uniform,
    "gaussian": _gaussian,
    "correlated": _per_record(_correlated),
    "anti_correlated": _per_record(_anti_correlated),
    "circular": _circular,
    "diagonal": _per_record(_diagonal),
}

DEFAULT_SPACE = Rectangle(0.0, 0.0, 1_000_000.0, 1_000_000.0)


def sampler_for(distribution: str) -> Sampler:
    try:
        return DISTRIBUTIONS[distribution]
    except KeyError:
        raise ValueError(
            f"unknown distribution {distribution!r}; "
            f"pick one of {sorted(DISTRIBUTIONS)}"
        ) from None


def generate_points(
    n: int,
    distribution: str = "uniform",
    seed: int = 0,
    space: Rectangle = DEFAULT_SPACE,
) -> List[Point]:
    """``n`` seeded points drawn from the named distribution.

    The values are a contract, bit for bit and in type: point ``i`` is
    the ``i``-th record of one ``random.Random(seed)`` drawn record by
    record -- ``uniform`` is ``Point(rng.uniform(x1, x2), rng.uniform(y1,
    y2))``, ``gaussian`` clamps ``rng.gauss(centre, extent / 6)`` per axis
    into ``space`` with ``min(max(v, lo), hi)`` (so an int corner that
    wins a clamp stays an int), and so on for each sampler below.
    ``uniform``, ``gaussian`` and ``circular`` draw that same stream in
    bulk and compute on float64 columns, with libm's ``log`` / ``cos`` /
    ``sin``; ``correlated``, ``anti_correlated`` and ``diagonal`` draw it
    one record at a time. ``tests/test_datagen/test_golden.py`` pins the
    values of every distribution.
    """
    sampler = sampler_for(distribution)
    if n < 0:
        raise ValueError("n must be non-negative")
    return chunked(sampler, random.Random(seed), space, n, 0,
                   lambda xs, ys, _: map(Point, xs.tolist(), ys.tolist()))
