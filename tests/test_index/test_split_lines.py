"""Records touching a split line of a tree partitioning are not lost.

Integer rectangles share edges with the k-d tree's split lines (its splits
are sample coordinates). Ownership of a pair or of a record ∩ window is
decided by a reference point under the closed predicates, so every cell
whose closed rectangle a record touches must store it.
"""

import random

import pytest

from repro import SpatialHadoop
from repro.geometry import Rectangle
from repro.index import PARTITIONERS


def lattice_rects(rng, n=600):
    rects = []
    for _ in range(n):
        x, y = rng.randrange(64), rng.randrange(64)
        rects.append(Rectangle(x, y, x + 2, y + 2))
    return rects


def build(seed, workers=None):
    rng = random.Random(seed)
    left, right = lattice_rects(rng), lattice_rects(rng)
    sh = SpatialHadoop(num_nodes=4, job_overhead_s=0.01, workers=workers)
    sh.load("left", left)
    sh.load("right", right)
    # The capacity must reach the index: one cell would be trivially exact.
    sh.index("left", "left_idx", technique="kdtree", block_capacity=50)
    sh.index("right", "right_idx", technique="kdtree", block_capacity=50)
    return sh, left, right


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kdtree_join_matches_brute_force(seed):
    sh, left, right = build(seed)
    assert len(sh.fs.get("left_idx").blocks) > 1
    got = sh.spatial_join("left_idx", "right_idx").answer
    want = [(a, b) for a in left for b in right if a.intersects(b)]
    assert len(got) == len(want)
    assert sorted(map(repr, got)) == sorted(map(repr, want))


def test_range_window_edge_on_a_split_line():
    check_window_edges(*build(0)[:2])


@pytest.mark.usefixtures("pool_pinned")
def test_range_window_edge_on_a_split_line_on_the_pool():
    """Integer rectangles keep their type on a worker: the answer's
    ``repr``s are the serial ones."""
    sh, left, _ = build(0, workers=2)
    try:
        check_window_edges(sh, left)
        assert sh.runner.executor.last_dispatch["mode"] == "pool"
    finally:
        sh.runner.close()


def check_window_edges(sh, left):
    gindex = sh.fs.get("left_idx").metadata["global_index"]
    space = gindex.mbr
    splits = sorted(
        {c.mbr.x1 for c in gindex.cells if c.mbr.x1 > space.x1}
    )
    assert splits
    for split in splits:
        window = Rectangle(split, 10, split + 7, 40)
        got = sh.range_query("left_idx", window).answer
        want = [r for r in left if r.intersects(window)]
        assert sorted(map(repr, got)) == sorted(map(repr, want)), split


@pytest.mark.parametrize("name", ["quadtree", "kdtree"])
def test_rect_ending_on_a_split_line_reaches_the_next_cell(name):
    from repro.datagen import generate_points

    space = Rectangle(0, 0, 1000, 1000)
    p = PARTITIONERS[name].create(
        generate_points(400, "uniform", seed=0, space=space), 16, space
    )
    for cid in range(p.num_cells()):
        cell = p.cell_rect(cid)
        if cell.x1 <= space.x1:
            continue
        # Ends exactly on the cell's left edge, starts in the cell before.
        rect = Rectangle(cell.x1 - 1, cell.y1, cell.x1, cell.y1 + 1)
        assert cid in p.assign(rect)
