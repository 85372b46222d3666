"""Range query correctness across every index technique."""

import random

import pytest

from repro.datagen import generate_points, generate_polygons, generate_rectangles
from repro.geometry import Point, Polygon, Rectangle
from repro.index import PARTITIONERS, build_index
from repro.index.partitioners.base import shape_mbr
from repro.geometry import vectorized
from repro.index import rtree as rtree_module
from repro.mapreduce import ClusterModel, FileSystem, JobRunner
from repro.operations import (
    range_count_spatial,
    range_query_hadoop,
    range_query_spatial,
)

SPACE = Rectangle(0, 0, 1000, 1000)
QUERIES = [
    Rectangle(100, 100, 300, 300),
    Rectangle(0, 0, 1000, 1000),     # everything
    Rectangle(2000, 2000, 3000, 3000),  # nothing
    Rectangle(499, 499, 501, 501),   # tiny central window
]


def brute(records, query):
    return sorted(r for r in records if query.intersects(r.mbr))


class TestHadoopRangeQuery:
    @pytest.mark.parametrize("query", QUERIES)
    def test_matches_bruteforce(self, runner, query):
        pts = generate_points(800, "uniform", seed=1, space=SPACE)
        runner.fs.create_file("pts", pts)
        result = range_query_hadoop(runner, "pts", query)
        assert sorted(result.answer) == brute(pts, query)

    def test_reads_every_block(self, runner):
        pts = generate_points(800, "uniform", seed=1, space=SPACE)
        runner.fs.create_file("pts", pts)
        result = range_query_hadoop(runner, "pts", QUERIES[0])
        assert result.blocks_read == runner.fs.num_blocks("pts")
        assert result.system == "hadoop"


@pytest.mark.parametrize("technique", sorted(PARTITIONERS))
class TestSpatialRangeQuery:
    @pytest.mark.parametrize("query", QUERIES)
    def test_points_match_bruteforce(self, runner, technique, query):
        pts = generate_points(800, "uniform", seed=2, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", technique)
        result = range_query_spatial(runner, "idx", query)
        assert sorted(result.answer) == brute(pts, query)

    def test_rectangles_deduplicated(self, runner, technique, query=None):
        rects = generate_rectangles(
            500, "uniform", seed=3, space=SPACE, avg_side_fraction=0.05
        )
        runner.fs.create_file("rects", rects)
        build_index(runner, "rects", "idx", technique)
        q = Rectangle(200, 200, 600, 600)
        result = range_query_spatial(runner, "idx", q)
        expected = [r for r in rects if q.intersects(r)]
        assert len(result.answer) == len(expected)
        assert sorted(result.answer) == sorted(expected)

    def test_prunes_blocks(self, runner, technique):
        pts = generate_points(1500, "uniform", seed=4, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", technique)
        small = Rectangle(10, 10, 60, 60)
        result = range_query_spatial(runner, "idx", small)
        assert result.blocks_read < runner.fs.num_blocks("idx")

    def test_skewed_data(self, runner, technique):
        pts = generate_points(900, "gaussian", seed=5, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", technique)
        q = Rectangle(400, 400, 600, 600)
        result = range_query_spatial(runner, "idx", q)
        assert sorted(result.answer) == brute(pts, q)


def serial_runner():
    """A runner of its own on the serial backend: a spy sees only this
    process, and the fixture's runner may be a pool."""
    return JobRunner(FileSystem(default_block_capacity=150),
                     ClusterModel(num_nodes=4, job_overhead_s=0.01),
                     workers=1)


class TestAblations:
    def test_no_local_index_same_answer(self):
        """The indexed query packs no local index: its column mask
        answers as the full scan of the heap file does."""
        runner = serial_runner()
        pts = generate_points(600, "uniform", seed=6, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "str")
        q = Rectangle(100, 100, 500, 500)
        indexed = range_query_spatial(runner, "idx", q)
        scan = range_query_hadoop(runner, "pts", q)
        assert sorted(indexed.answer) == sorted(scan.answer) == brute(pts, q)
        views = [b.local_view for b in runner.fs.get("idx").blocks]
        assert any(views)
        assert all(view[2] is None for view in views if view)

    def test_no_prune_same_answer_more_blocks(self, runner):
        pts = generate_points(600, "uniform", seed=7, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "grid")
        q = Rectangle(0, 0, 120, 120)
        pruned = range_query_spatial(runner, "idx", q, prune=True)
        full = range_query_spatial(runner, "idx", q, prune=False)
        assert sorted(pruned.answer) == sorted(full.answer)
        assert pruned.blocks_read < full.blocks_read

    def test_unindexed_file_rejected(self, runner):
        runner.fs.create_file("pts", generate_points(10, seed=0))
        with pytest.raises(ValueError):
            range_query_spatial(runner, "pts", QUERIES[0])


class TestScanDedup:
    """A replicating index: the one mask kernel applies reference-point
    dedup, over the payload's columns (rectangles) and over the MBR
    columns derived from the records (polygons) alike."""

    #: Float corners, so clipped rectangles keep float coordinates.
    SPACE = Rectangle(0.0, 0.0, 1000.0, 1000.0)

    @pytest.mark.parametrize("technique", ["grid", "str+"])
    @pytest.mark.parametrize("shape", ["rectangles", "polygons"])
    def test_straddling_records_reported_once(
        self, runner, monkeypatch, technique, shape
    ):
        if shape == "rectangles":  # float corners: the payload's columns
            records = generate_rectangles(
                600, "uniform", seed=8, space=self.SPACE,
                avg_side_fraction=0.06,
            )
        else:  # no payload: MBR columns derived from the records
            records = generate_polygons(
                400, "uniform", seed=8, space=self.SPACE,
                avg_radius_fraction=0.04,
            )
        runner.fs.create_file("f", records)
        build_index(runner, "f", "idx", technique)
        blocks = runner.fs.get("idx").blocks
        assert sum(map(len, blocks)) > len(records)  # records straddle cells
        assert {b.columnar is None for b in blocks} == {shape == "polygons"}
        for q in (Rectangle(150.0, 150.0, 650.0, 550.0), self.SPACE):
            got = range_query_spatial(runner, "idx", q)
            expected = [r for r in records if q.intersects(shape_mbr(r))]
            assert len(got.answer) == len(expected)
            assert sorted(map(repr, got.answer)) == sorted(map(repr, expected))

        calls = []
        real = vectorized.rects_intersect_owned

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(vectorized, "rects_intersect_owned", spy)
        serial = serial_runner()
        serial.fs.create_file("f", records)
        build_index(serial, "f", "idx", technique)
        range_query_spatial(serial, "idx", self.SPACE)
        assert len(calls) == len(serial.fs.get("idx").blocks)

    @pytest.mark.parametrize("technique", ["grid", "str+"])
    @pytest.mark.parametrize("shape", ["rectangles", "polygons"])
    def test_lattice_edges_on_split_lines(self, runner, technique, shape):
        """Records on a lattice whose lines include the index's split
        lines: edges, corners and windows on a cell boundary, the query
        and the count, against brute force.

        STR+ splits at sample centres, which on an integer lattice of
        even sides are lattice points. The grid's lines are the space's
        width over ``g`` past a margin, never integers, so its lattice
        steps a quarter of a probe build's cell side.
        """
        step = 1.0
        if technique == "grid":
            runner.fs.create_file("probe", lattice_shapes(step, shape))
            build_index(runner, "probe", "probe_idx", technique)
            cells = runner.fs.get("probe_idx").metadata["global_index"].cells
            step = min(c.mbr.width for c in cells) / 4
        records = lattice_shapes(step, shape)
        runner.fs.create_file("f", records)
        build_index(runner, "f", "idx", technique)
        gindex = runner.fs.get("idx").metadata["global_index"]
        if technique == "grid":  # same space, same count: the probe's grid
            assert [c.mbr for c in gindex.cells] == [c.mbr for c in cells]
        space = gindex.mbr
        xs = sorted({c.mbr.x1 for c in gindex.cells} - {space.x1})
        ys = sorted({c.mbr.y1 for c in gindex.cells} - {space.y1})
        edges = {e for r in records for e in (shape_mbr(r).x1, shape_mbr(r).x2)}
        assert xs and ys and edges & set(xs)
        blocks = runner.fs.get("idx").blocks
        assert sum(map(len, blocks)) > len(records)
        assert {b.columnar is None for b in blocks} == {shape == "polygons"}
        windows = [space, Rectangle(xs[0], ys[0], xs[-1], ys[-1])] + [
            Rectangle(x, y, x + 3 * step, y + 5 * step)
            for x in (xs[0], xs[-1]) for y in (ys[0], ys[-1])
        ]
        for q in windows:
            want = sorted(repr(r) for r in records
                          if q.intersects(shape_mbr(r)))
            got = range_query_spatial(runner, "idx", q)
            assert sorted(map(repr, got.answer)) == want, q
            assert range_count_spatial(runner, "idx", q).answer == len(want)


class TestDerivedLocalIndex:
    def test_polygon_blocks_derive_their_mbrs_once(self, monkeypatch):
        """A polygon block has no columns to read: its first query
        derives the MBR columns (one ``shape_mbr`` per stored row) and
        caches them on the block, so a second query over the same blocks
        calls ``shape_mbr`` no more."""
        space = TestScanDedup.SPACE
        records = generate_polygons(400, "uniform", seed=8, space=space,
                                    avg_radius_fraction=0.04)
        serial = serial_runner()
        serial.fs.create_file("f", records)
        build_index(serial, "f", "idx", "str+")
        blocks = serial.fs.get("idx").blocks
        assert all(b.columnar is None for b in blocks)
        calls = []
        real = rtree_module.shape_mbr
        monkeypatch.setattr(rtree_module, "shape_mbr",
                            lambda shape: calls.append(1) or real(shape))
        first = range_query_spatial(serial, "idx", space)
        assert len(calls) == sum(map(len, blocks))
        calls.clear()
        second = range_query_spatial(serial, "idx", space)
        assert range_count_spatial(serial, "idx", space).answer == len(records)
        assert calls == []
        assert second.answer == first.answer
        assert len(first.answer) == len(records)


def lattice_shapes(step, shape, n=600, extent=64.0):
    """``n`` squares of 2 or 4 lattice ``step``s (even, so centres are
    lattice points) inside ``[0, extent]^2``, which two corner squares
    pin. Polygons have no columnar payload."""
    rng = random.Random(12)
    last = int(extent / step) - 4
    records = [Rectangle(0.0, 0.0, 2 * step, 2 * step),
               Rectangle(extent - 2 * step, extent - 2 * step, extent, extent)]
    for _ in range(n - 2):
        x, y, w = rng.randrange(last), rng.randrange(last), rng.choice((2, 4))
        records.append(Rectangle(x * step, y * step,
                                 (x + w) * step, (y + w) * step))
    if shape == "rectangles":
        return records
    return [Polygon([Point(r.x1, r.y1), Point(r.x2, r.y1),
                     Point(r.x2, r.y2), Point(r.x1, r.y2)]) for r in records]
