"""The generators' values, pinned.

Every benchmark input and experiment dataset comes from ``repro.datagen``,
so its values are a contract, not only its determinism: a generator that
drifts by one ulp (NumPy's ``log`` instead of libm's, a clamp that turns
an int bound into a float) moves cocircular Voronoi ties, closest-pair
ties and the partition boundaries. Each digest is a sha256 of the
``repr`` of every generated list over seeds 0-29, sizes 0, 1, 2, 3 and
501, the default space, an odd non-square float space and an
int-cornered space (polygons, whose vertices are always float
arithmetic, skip the last); the values were taken from the per-record
generators that the bulk draw replaced.

Between the pinned spaces, ``tests/oracles/scalar_datagen.py`` (the
per-record generators) is the reference: on hypothesis-drawn spaces with
int and float corners, and across a chunk boundary of the bulk draw,
points and rectangles must equal it ``repr`` for ``repr``.

The digests are specific to the host's libm (glibc on x86_64): most
hash values computed with ``log``, ``cos`` and ``sin``, which glibc does
not promise to round correctly, and x86_64 picks FMA or non-FMA variants
at run time. Read a mismatch on another platform as a libm difference
first; the comparison with the per-record oracle is the portable check.

Regenerate a digest with ``python -m tests.test_datagen.test_golden``
(``PYTHONPATH=src``) only when a generator is meant to change its values.
"""

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datagen import (
    DISTRIBUTIONS,
    generate_points,
    generate_polygons,
    generate_rectangles,
)
from repro.datagen.points import CHUNK, DEFAULT_SPACE
from repro.geometry import Rectangle
from tests.oracles.scalar_datagen import scalar_points, scalar_rectangles

SEEDS = range(30)
SIZES = (0, 1, 2, 3, 501)
SPACES = (
    DEFAULT_SPACE,
    Rectangle(-3.5, 0.25, 19.0, 0.251),  # 22.5 x 0.001
    Rectangle(0, -40, 1000, 660),  # int corners: a clamp may return them
)
GENERATORS = {
    "points": generate_points,
    "rectangles": generate_rectangles,
    "polygons": generate_polygons,
}
POLYGON_DISTRIBUTIONS = ("uniform", "gaussian")
POLYGON_SPACES = SPACES[:2]

GOLDEN = {
    "points/anti_correlated":
        "86b86d1ed5fa92618c418dfab8367d884d1ded2fbcac95b06a91344e901a3dce",
    "points/circular":
        "ce16b5a2e3b376bf1325a963f32f9ac12c5bff1798b25f079fff3a02c6e88f61",
    "points/correlated":
        "414f7e3195b330b956710232727dfa200b3cfb2bc12f2ecdcd60676771ad9f36",
    "points/diagonal":
        "63b350bd4b2212c5654deab707b9f9555764acbc4675b28bb89859bf5b3dc9c3",
    "points/gaussian":
        "70d862ce0e8c30979129dc6d652157e8cd6f1fd113cf58c2c5916b56e81ecede",
    "points/uniform":
        "af5afb0fa27002b2fb22443679f19dc7a5c2f6155388c216e6d71c4ab676ccd3",
    "rectangles/anti_correlated":
        "eceb54a8df06d87f355add031a0a69ff327c2059ad0af77fd84a4a50673ba1e8",
    "rectangles/circular":
        "6e5e3953361c5d9bf906ebb54e041e22fb1111f5d904847c2d08f0ad998a1bee",
    "rectangles/correlated":
        "c29d90d7fde4c3e7f7abeeee8c9c7392dd26f868edd80380145d2e19368992c3",
    "rectangles/diagonal":
        "d8bfc0228f10553161e844ea63639879c4612883744a0f03ff4c0e138451bff2",
    "rectangles/gaussian":
        "3b864843882225afaa73c9c42e7810f221b7fcc193c7a943c6df6748f25378e5",
    "rectangles/uniform":
        "7e56c3a22fe24c88111b03a5c01873daa76c70e8a75406179298902e0e0bec26",
    "polygons/uniform":
        "d3ad7f6112962ac3d9d77655c96f7f2f7c850dd7f235e5d09de525d8619dcd91",
    "polygons/gaussian":
        "f7aceb7206df08a7a4dff57df55cd80ac64c96678446800a36e7c77c71840024",
}


def digest(kind: str, distribution: str) -> str:
    generate = GENERATORS[kind]
    h = hashlib.sha256()
    for space in POLYGON_SPACES if kind == "polygons" else SPACES:
        for seed in SEEDS:
            for n in SIZES:
                records = generate(n, distribution, seed=seed, space=space)
                h.update(repr(records).encode())
    return h.hexdigest()


CASES = [("points", d) for d in sorted(DISTRIBUTIONS)] + [
    ("rectangles", d) for d in sorted(DISTRIBUTIONS)] + [
    ("polygons", d) for d in POLYGON_DISTRIBUTIONS]


def test_every_case_is_pinned():
    assert set(GOLDEN) == {f"{kind}/{d}" for kind, d in CASES}


@pytest.mark.parametrize("kind,distribution", CASES)
def test_values_are_the_pinned_ones(kind, distribution):
    assert digest(kind, distribution) == GOLDEN[f"{kind}/{distribution}"]


_corner = st.one_of(
    st.integers(-10**6, 10**6),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _spaces(draw):
    x1, x2 = sorted([draw(_corner), draw(_corner)])
    y1, y2 = sorted([draw(_corner), draw(_corner)])
    return Rectangle(x1, y1, x2, y2)


@settings(max_examples=150, deadline=None)
@given(space=_spaces(), distribution=st.sampled_from(sorted(DISTRIBUTIONS)),
       seed=st.integers(0, 2**32), n=st.integers(0, 40))
def test_bulk_equals_the_per_record_draw(space, distribution, seed, n):
    assert repr(generate_points(n, distribution, seed, space)) == repr(
        scalar_points(n, distribution, seed, space))
    assert repr(generate_rectangles(n, distribution, seed, space)) == repr(
        scalar_rectangles(n, distribution, seed, space))


@pytest.mark.parametrize("distribution", ["uniform", "gaussian", "circular"])
def test_chunks_continue_the_stream(distribution):
    n = CHUNK + 3
    assert repr(generate_points(n, distribution, 5)) == repr(
        scalar_points(n, distribution, 5, DEFAULT_SPACE))
    assert repr(generate_rectangles(n, distribution, 6)) == repr(
        scalar_rectangles(n, distribution, 6, DEFAULT_SPACE))


if __name__ == "__main__":
    for kind, distribution in CASES:
        print(f'    "{kind}/{distribution}":\n'
              f'        "{digest(kind, distribution)}",')
