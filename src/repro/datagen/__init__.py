"""Seeded synthetic workload generators.

Stand-ins for the papers' OSM extracts and generated datasets. Every
distribution used in the evaluation is available: ``uniform``, ``gaussian``,
``correlated``, ``anti_correlated`` (the skyline best/worst cases),
``circular`` (the farthest-pair worst case) and ``diagonal``. Rectangle
and polygon generators cover the join and union workloads.

All generators take an explicit seed so experiments are reproducible,
and their values are pinned, not only their determinism: each record is
the one drawing ``random.Random(seed)`` record by record gives, bit for
bit. ``uniform``, ``gaussian`` and ``circular`` points and rectangles
draw that stream in bulk (one ``getrandbits`` per chunk of records,
float64 columns, libm through ``map``); the other distributions and
polygons (which reject) draw it per record. See
:func:`~repro.datagen.points.generate_points`.
"""

from repro.datagen.points import (
    DISTRIBUTIONS,
    generate_points,
)
from repro.datagen.shapes import generate_polygons, generate_rectangles

__all__ = [
    "DISTRIBUTIONS",
    "generate_points",
    "generate_polygons",
    "generate_rectangles",
]
