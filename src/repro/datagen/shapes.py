"""Rectangle and polygon dataset generators (join and union workloads)."""

from __future__ import annotations

import math
import random
from typing import List

import numpy as np

from repro.datagen.points import (
    DEFAULT_SPACE,
    _exact,
    _scaled,
    chunked,
    sampler_for,
)
from repro.geometry import Point, Polygon, Rectangle


def generate_rectangles(
    n: int,
    distribution: str = "uniform",
    seed: int = 0,
    space: Rectangle = DEFAULT_SPACE,
    avg_side_fraction: float = 0.01,
) -> List[Rectangle]:
    """``n`` seeded rectangles with centres from the named distribution.

    ``avg_side_fraction`` controls the mean rectangle side as a fraction of
    the space extent, which directly controls join selectivity. Each
    record draws its centre, then its width and height (the sampler's two
    extras), and is clipped to ``space``; the values are the per-record
    draw's, bit for bit (see :func:`repro.datagen.generate_points`).
    """
    max_w = space.width * avg_side_fraction * 2
    max_h = space.height * avg_side_fraction * 2

    def build(xs, ys, more):
        half_w = _scaled(more[:, 0], 0, max_w) / 2
        half_h = _scaled(more[:, 1], 0, max_h) / 2
        return map(
            Rectangle,
            _at_least(xs - half_w, space.x1).tolist(),
            _at_least(ys - half_h, space.y1).tolist(),
            _at_most(xs + half_w, space.x2).tolist(),
            _at_most(ys + half_h, space.y2).tolist(),
        )

    return chunked(sampler_for(distribution), random.Random(seed), space, n,
                   2, build)


def _at_least(v: np.ndarray, lo: float) -> np.ndarray:
    """``max(lo, v)`` per value: ``lo`` itself unless ``v`` exceeds it."""
    return np.where(v > lo, v, _exact(lo))


def _at_most(v: np.ndarray, hi: float) -> np.ndarray:
    """``min(hi, v)`` per value: ``hi`` itself unless ``v`` is below it."""
    return np.where(v < hi, v, _exact(hi))


def generate_polygons(
    n: int,
    distribution: str = "uniform",
    seed: int = 0,
    space: Rectangle = DEFAULT_SPACE,
    avg_radius_fraction: float = 0.01,
    min_vertices: int = 4,
    max_vertices: int = 10,
) -> List[Polygon]:
    """``n`` seeded star-shaped simple polygons (parcel-style workload).

    Each polygon is built by sorting random angular offsets around a centre
    point, guaranteeing a simple (non self-intersecting) shell — the same
    construction the SpatialHadoop generator uses for parcel data.
    """
    sampler = sampler_for(distribution)
    if min_vertices < 3 or max_vertices < min_vertices:
        raise ValueError("need max_vertices >= min_vertices >= 3")
    rng = random.Random(seed)
    base_radius = min(space.width, space.height) * avg_radius_fraction
    out: List[Polygon] = []
    while len(out) < n:
        xs, ys, _ = sampler(rng, space, 1, 0)
        (cx,), (cy,) = xs.tolist(), ys.tolist()
        k = rng.randint(min_vertices, max_vertices)
        angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
        # Angle-sorted vertices give a star-shaped (hence simple) polygon
        # only when every angular gap stays below pi; otherwise the closing
        # edge can slice through other sectors. Redraw on a wide gap.
        gaps = [angles[i + 1] - angles[i] for i in range(k - 1)]
        gaps.append(2 * math.pi - (angles[-1] - angles[0]))
        if max(gaps) >= math.pi * 0.95:
            continue
        shell = [
            Point(
                cx + rng.uniform(0.5, 1.0) * base_radius * math.cos(a),
                cy + rng.uniform(0.5, 1.0) * base_radius * math.sin(a),
            )
            for a in angles
        ]
        try:
            poly = Polygon(shell)
        except ValueError:
            continue  # nearly coincident vertices: redraw
        if poly.area > 0 and poly.is_simple():
            out.append(poly)
    return out
