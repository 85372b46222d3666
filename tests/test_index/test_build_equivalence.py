"""The columnar index build against the record-at-a-time oracle.

For every technique and record kind the build must produce the cells the
scalar build produces — ids, boundaries, tight content MBRs and the very
record *objects* each cell stores — while moving per-(block, cell) offset
arrays, not per-record tuples, through the shuffle.
"""

from array import array

import pytest

from repro import Feature
from repro.datagen import generate_points, generate_polygons, generate_rectangles
from repro.geometry import Point, Rectangle
from repro.index import PARTITIONERS, build_index
from repro.index.rtree import local_index, mbr_columns
from repro.mapreduce import Counter, FileSystem, JobRunner
from tests.oracles import scalar_kernels
from tests.oracles.scalar_index_build import scalar_build

CAPACITY = 120
TECHNIQUES = sorted(PARTITIONERS)


def _records(kind):
    if kind == "points":
        return generate_points(1500, "gaussian", seed=3)
    if kind == "rectangles":
        return generate_rectangles(
            700, "uniform", seed=4, avg_side_fraction=0.04
        )
    if kind == "features":
        return [
            Feature(p, {"id": i})
            for i, p in enumerate(generate_points(800, "uniform", seed=5))
        ]
    return generate_polygons(300, "uniform", seed=6, avg_radius_fraction=0.04)


def _build(records, technique, workers=None):
    fs = FileSystem(default_block_capacity=CAPACITY)
    fs.create_file("in", records)
    runner = JobRunner(fs, workers=workers)
    result = build_index(runner, "in", "out", technique)
    return fs, result


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize(
    "kind", ["points", "rectangles", "features", "polygons"]
)
def test_cells_equal_the_scalar_build(kind, technique):
    records = _records(kind)
    fs, result = _build(records, technique)
    source = [block.records for block in fs.get("in").blocks]
    want = scalar_build(source, technique, CAPACITY)

    blocks = {b.metadata["cell_id"]: b for b in fs.get("out").blocks}
    assert sorted(blocks) == sorted(want)
    for cell_id, oracle in want.items():
        block = blocks[cell_id]
        cell = result.global_index.cell(cell_id)
        assert block.metadata["cell"] == oracle.mbr == cell.mbr
        assert cell.content_mbr == oracle.content_mbr
        assert cell.num_records == len(oracle.records)
        # The same objects, not equal copies: the join's duplicate
        # handling compares replicated records by identity.
        assert sorted(map(id, block.records)) == sorted(
            map(id, oracle.records)
        )
    stored = sum(len(c.records) for c in want.values())
    assert result.replication == stored / len(records)


@pytest.mark.parametrize("technique", ["grid", "str+", "quadtree", "kdtree"])
def test_replicated_records_are_one_object_in_every_block(technique):
    rects = _records("rectangles")
    fs, result = _build(rects, technique)
    assert result.replication > 1.0
    homes = {}
    for block in fs.get("out").blocks:
        for record in block.records:
            homes.setdefault(record, []).append(record)
    replicated = [copies for copies in homes.values() if len(copies) > 1]
    assert replicated
    for copies in replicated:
        assert all(copy is copies[0] for copy in copies)


@pytest.mark.parametrize("technique", TECHNIQUES)
def test_block_rows_columns_and_local_index_share_one_order(technique):
    fs, _ = _build(_records("rectangles"), technique)
    for block in fs.get("out").blocks:
        tree = local_index(block)
        expected = [col.tolist() for col in mbr_columns(block.records)]
        assert [col.tolist() for col in tree.columns] == expected
        assert [
            col.tolist() for col in block.columnar.mbr_columns()
        ] == expected
        assert tree.search(tree.mbr) == list(range(len(block.records)))


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("kind", ["points", "rectangles"])
def test_partition_job_shuffles_at_most_one_record_per_block_and_cell(
    kind, technique
):
    fs, result = _build(_records(kind), technique)
    num_blocks = fs.num_blocks("in")
    num_cells = len(result.global_index)
    counters = result.jobs[-1].counters
    shuffled = counters.get(Counter.SHUFFLE_RECORDS)
    assert 0 < shuffled <= num_blocks * num_cells
    assert counters.get(Counter.MAP_OUTPUT_RECORDS) == shuffled
    assert counters.get(Counter.MAP_INPUT_RECORDS) == fs.num_records("in")
    # What is shuffled is offsets: 8 bytes a stored record plus a fixed
    # charge per (block, cell) pair.
    stored = result.global_index.total_records
    assert 8 * stored < counters.get(Counter.SHUFFLE_BYTES) < (
        8 * stored + 200 * shuffled
    )


@pytest.mark.parametrize("kind,per_record", [("points", 0), ("polygons", 1)])
def test_mbrs_are_derived_at_most_once_per_record(kind, per_record, monkeypatch):
    from repro.index import rtree

    calls = []
    real = rtree.shape_mbr
    monkeypatch.setattr(
        rtree, "shape_mbr", lambda r: calls.append(r) or real(r)
    )
    records = _records(kind)
    # The patch counts calls in this process: keep the tasks here too,
    # whatever backend REPRO_WORKERS selects for the rest of the suite.
    _build(records, "str+", workers=1)
    assert len(calls) == per_record * len(records)


def test_derived_columns_travel_with_their_own_split_only():
    from repro.index.build import _derived_columns_splitter
    from repro.mapreduce import Job

    fs = FileSystem(default_block_capacity=CAPACITY)
    fs.create_file("in", _records("polygons"))
    derived = {1: ("x1", "y1", "x2", "y2")}
    job = Job(input_file="in", map_fn=None)
    splits = _derived_columns_splitter(derived)(fs, job)
    assert [s.block_index for s in splits] == list(range(fs.num_blocks("in")))
    assert [s.key for s in splits] == [None, derived[1], None]


@pytest.mark.parametrize("technique", TECHNIQUES)
@pytest.mark.parametrize("kind", ["points", "rectangles"])
def test_array_columns_route_like_numpy_columns(kind, technique):
    """``array('d')`` columns routed record by record through ``assign``
    (the loop ``partition_columns`` used to have for them) and NumPy
    columns routed by the kernels give the same offsets per cell."""
    records = _records(kind)
    cols = mbr_columns(records)
    space = Rectangle(*(f(c) for f, c in zip((min, min, max, max), cols)))
    sample = [r.mbr.center for r in records[::7]]
    partitioner = PARTITIONERS[technique].create(sample, 12, space)
    fast = partitioner.partition_columns(*cols)
    plain = scalar_kernels.partition_columns(
        partitioner, *(array("d", col.tolist()) for col in cols)
    )
    assert [(c, rows.tolist()) for c, rows in fast] == [
        (c, rows.tolist()) for c, rows in plain
    ]


def test_points_outside_the_sampled_space_route_like_assign():
    """Clamping, not the data, decides edge cells: probe far outside."""
    sample = generate_points(400, "uniform", seed=9)
    space = Rectangle(0, 0, 1e6, 1e6)
    probes = [
        Point(x, y)
        for x in (-1e9, -1.0, 0.0, 5e5, 1e6, 1e6 + 1, 1e12)
        for y in (-1e9, 0.0, 999_999.999, 1e6, 1e12)
    ]
    cols = mbr_columns(probes)
    for technique in TECHNIQUES:
        partitioner = PARTITIONERS[technique].create(sample, 9, space)
        got = {
            row: cell
            for cell, rows in partitioner.partition_columns(*cols)
            for row in rows.tolist()
        }
        want = {i: partitioner.assign(p.mbr)[0] for i, p in enumerate(probes)}
        assert got == want, technique


class TestEdgeCases:
    def test_single_record_file(self):
        fs, result = _build([Point(3.0, 4.0)], "str")
        (block,) = fs.get("out").blocks
        assert block.records == [Point(3.0, 4.0)]
        assert block.metadata["cell"] == Rectangle(3, 4, 3, 4)
        assert local_index(block).search(Rectangle(0, 0, 9, 9)) == [0]
        assert result.global_index.total_records == 1

    def test_without_local_indexes_blocks_still_carry_columns(self):
        """No block stores a local index; each carries the columns one
        is derived from."""
        fs, _ = _build(_records("points"), "grid")
        for block in fs.get("out").blocks:
            assert "local_index" not in block.metadata
            assert "local_index_crc" not in block.metadata
            assert block.columnar.count == len(block.records)

