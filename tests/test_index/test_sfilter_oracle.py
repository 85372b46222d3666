"""The rasterised presence filter against the bit-at-a-time oracle.

``PresenceFilter.build`` marks each cell with one slice of a boolean grid
and packs it; its bytes must equal the per-bit loop's in
``tests/oracles``, including bounds of zero width or height (every cell
on one line or one point) and grids whose bit count is no multiple of 8.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Rectangle
from repro.index import Cell
from repro.index.sfilter import PresenceFilter
from tests.oracles.scalar_sfilter import scalar_bits

coord = st.integers(-50, 50).map(float) | st.floats(-1e4, 1e4)


@st.composite
def rects(draw, flat_x=False, flat_y=False):
    x1, x2 = sorted((draw(coord), draw(coord)))
    y1, y2 = sorted((draw(coord), draw(coord)))
    if flat_x:
        x2 = x1 = 5.0
    if flat_y:
        y2 = y1 = -2.0
    return Rectangle(x1, y1, x2, y2)


def check(mbrs, resolution):
    cells = [Cell(cell_id=i, mbr=r) for i, r in enumerate(mbrs)]
    filt = PresenceFilter.build(cells, resolution)
    assert isinstance(filt.bits, bytearray)
    assert filt.bits == scalar_bits(cells, resolution)
    assert pickle.loads(pickle.dumps(filt)) == filt


@given(
    mbrs=st.lists(rects(), min_size=1, max_size=40),
    resolution=st.integers(1, 70),
)
@settings(max_examples=150, deadline=None)
def test_bits_equal_the_oracle(mbrs, resolution):
    check(mbrs, resolution)


@given(
    flat=st.sampled_from([(True, False), (False, True), (True, True)]),
    mbrs=st.data(),
    resolution=st.integers(1, 70),
)
@settings(max_examples=60, deadline=None)
def test_zero_width_and_height_bounds(flat, mbrs, resolution):
    flat_x, flat_y = flat
    check(
        mbrs.draw(st.lists(rects(flat_x, flat_y), min_size=1, max_size=10)),
        resolution,
    )


def test_no_cells_no_filter():
    assert PresenceFilter.build([]) is None


def test_tiny_extents_and_far_probes():
    # A subnormal extent divides to an infinite scale, and a far query
    # over a tiny extent scales to an infinite tile index: both used to
    # raise converting the float to an int.
    flat = PresenceFilter.build([Cell(0, Rectangle(0.0, 0.0, 0.0, 5e-324))])
    assert flat.occupancy == 1 / 64**2
    assert flat.may_overlap(Rectangle(-1.0, -1.0, 1.0, 1.0))
    thin = PresenceFilter.build([Cell(0, Rectangle(0.0, 0.0, 1e-300, 1.0))])
    assert thin.may_overlap(Rectangle(-1e10, 0.0, 1e-300, 1.0))
    assert thin.may_overlap(Rectangle(0.0, 0.5, 1e10, 0.5))
