"""The point and rectangle generators drawn one record at a time, kept as
the oracle.

This is ``repro.datagen`` before it drew the uniform, gaussian and
circular streams in bulk: each sampler takes one ``(rng, space)`` and
returns one ``Point`` from ``rng.uniform`` / ``rng.gauss`` / ``math``
calls, and a rectangle is its centre, then ``rng.uniform`` width and
height, clipped with the builtins ``max`` / ``min``. The bulk generators
must give the same records, ``repr`` for ``repr``.
"""

from __future__ import annotations

import math
import random
from typing import List

from repro.geometry import Point, Rectangle


def _clamp(v, lo, hi):
    return min(max(v, lo), hi)


def _uniform(rng, space):
    return Point(rng.uniform(space.x1, space.x2), rng.uniform(space.y1, space.y2))


def _gaussian(rng, space):
    cx, cy = space.center.x, space.center.y
    sx, sy = space.width / 6.0, space.height / 6.0
    return Point(
        _clamp(rng.gauss(cx, sx), space.x1, space.x2),
        _clamp(rng.gauss(cy, sy), space.y1, space.y2),
    )


def _correlated(rng, space):
    t = rng.random()
    jitter = rng.gauss(0, 0.05)
    return Point(
        space.x1 + _clamp(t + jitter, 0, 1) * space.width,
        space.y1 + _clamp(t - jitter, 0, 1) * space.height,
    )


def _anti_correlated(rng, space):
    t = rng.random()
    jitter = rng.gauss(0, 0.05)
    return Point(
        space.x1 + _clamp(t + jitter, 0, 1) * space.width,
        space.y1 + _clamp(1 - t + jitter, 0, 1) * space.height,
    )


def _circular(rng, space):
    angle = rng.uniform(0, 2 * math.pi)
    radius = min(space.width, space.height) / 2.0
    r = radius * rng.uniform(0.95, 1.0)
    c = space.center
    return Point(
        _clamp(c.x + r * math.cos(angle), space.x1, space.x2),
        _clamp(c.y + r * math.sin(angle), space.y1, space.y2),
    )


def _diagonal(rng, space):
    t = rng.betavariate(2, 2)
    off = rng.gauss(0, 0.02)
    return Point(
        space.x1 + _clamp(t + off, 0, 1) * space.width,
        space.y1 + _clamp(t, 0, 1) * space.height,
    )


SAMPLERS = {
    "uniform": _uniform,
    "gaussian": _gaussian,
    "correlated": _correlated,
    "anti_correlated": _anti_correlated,
    "circular": _circular,
    "diagonal": _diagonal,
}


def scalar_points(n: int, distribution: str, seed: int,
                  space: Rectangle) -> List[Point]:
    rng = random.Random(seed)
    return [SAMPLERS[distribution](rng, space) for _ in range(n)]


def scalar_rectangles(n: int, distribution: str, seed: int, space: Rectangle,
                      avg_side_fraction: float = 0.01) -> List[Rectangle]:
    sampler = SAMPLERS[distribution]
    rng = random.Random(seed)
    max_w = space.width * avg_side_fraction * 2
    max_h = space.height * avg_side_fraction * 2
    out = []
    for _ in range(n):
        c = sampler(rng, space)
        w = rng.uniform(0, max_w)
        h = rng.uniform(0, max_h)
        out.append(Rectangle(
            max(space.x1, c.x - w / 2),
            max(space.y1, c.y - h / 2),
            min(space.x2, c.x + w / 2),
            min(space.y2, c.y + h / 2),
        ))
    return out
