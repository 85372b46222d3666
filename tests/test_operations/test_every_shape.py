"""Every query-language operation on every shape of input file.

Points, rectangles and polygons, bare and as Features, each as a heap
file and as an ``str+`` index: every operation answers, or raises
:class:`~repro.operations.common.ShapeError`, or (on a heap file) the
typed "not spatially indexed" ``ValueError``, and two pinned pool
workers give the serial outcome. Map tasks read their block: a live
``Block`` in the driver, and on a worker a shipped one that holds its
payload without its records, so this runs every map function on both.
"""

import pytest

from repro import SpatialHadoop
from repro.core import Feature
from repro.datagen import generate_points, generate_polygons, generate_rectangles
from repro.geometry import Point, Rectangle
from repro.operations.common import ShapeError
from repro.operations.table import OPERATIONS
from tests.conftest import pin_pool

SPACE = Rectangle(0.0, 0.0, 1000.0, 1000.0)
ARGS = {
    "window": Rectangle(200.0, 150.0, 620.0, 610.0),
    "point": Point(480.0, 520.0),
    "k": 3,
}
SHAPES = ("points", "rects", "polys")
FILES = [
    shape + feature + indexed
    for shape in SHAPES for feature in ("", "_f") for indexed in ("", "_idx")
]


def build(workers):
    sh = SpatialHadoop(num_nodes=4, block_capacity=40, job_overhead_s=0.01,
                       workers=workers)
    records = {
        "points": generate_points(150, "uniform", seed=51, space=SPACE),
        "rects": generate_rectangles(150, "uniform", seed=52, space=SPACE,
                                     avg_side_fraction=0.03),
        "polys": generate_polygons(150, "uniform", seed=53, space=SPACE,
                                   avg_radius_fraction=0.03),
    }
    for shape in SHAPES:
        features = [Feature(r, {"i": i}) for i, r in enumerate(records[shape])]
        for name, data in ((shape, records[shape]), (shape + "_f", features)):
            sh.load(name, data)
            sh.index(name, name + "_idx", technique="str+")
    return sh


@pytest.fixture(scope="module")
def systems():
    """A serial system and a two-worker one whose waves all reach the
    pool."""
    with pin_pool():
        serial, pooled = build(1), build(2)
        try:
            yield serial, pooled
        finally:
            pooled.runner.close()


def outcome(sh, op, name):
    """``("answer", repr)``, ``("shape", message)`` or ``("not-indexed",
    message)``; any other error propagates."""
    operation = OPERATIONS[op]
    args = [name] * operation.files + [ARGS[a] for a in operation.args]
    try:
        return "answer", repr(getattr(sh, operation.method)(*args).answer)
    except ShapeError as exc:
        return "shape", str(exc)
    except ValueError as exc:
        if "is not spatially indexed" not in str(exc):
            raise
        return "not-indexed", str(exc)


@pytest.mark.parametrize("name", FILES)
@pytest.mark.parametrize("op", sorted(OPERATIONS))
def test_operation_answers_or_raises_a_typed_error(systems, op, name):
    serial, pooled = systems
    kind, detail = outcome(serial, op, name)
    if kind == "not-indexed":
        assert not name.endswith("_idx")
    if name.startswith("polys" if op == "union" else "points"):
        assert kind != "shape", detail  # the operation's own shape
    assert outcome(pooled, op, name) == (kind, detail)
