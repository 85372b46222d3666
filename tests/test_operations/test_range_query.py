"""Range query correctness across every index technique."""

import pytest

from repro.datagen import generate_points, generate_polygons, generate_rectangles
from repro.geometry import Rectangle
from repro.index import PARTITIONERS, build_index
from repro.index.partitioners.base import shape_mbr
from repro.mapreduce.columnar import ColumnarPayload
from repro.operations import range_query_hadoop, range_query_spatial
from repro.operations import range_query as range_query_module

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


class TestAblations:
    def test_no_local_index_same_answer(self, runner):
        pts = generate_points(600, "uniform", seed=6, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "str")
        q = Rectangle(100, 100, 500, 500)
        with_li = range_query_spatial(runner, "idx", q, use_local_index=True)
        without_li = range_query_spatial(runner, "idx", q, use_local_index=False)
        assert sorted(with_li.answer) == sorted(without_li.answer)

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
    """``use_local_index=False`` on a replicating index: the record scan
    and the payload kernel apply reference-point dedup themselves."""

    #: Float corners, so clipped rectangles keep float coordinates.
    SPACE = Rectangle(0.0, 0.0, 1000.0, 1000.0)

    @pytest.mark.parametrize("technique", ["grid", "str+"])
    @pytest.mark.parametrize("shape", ["rectangles", "polygons"])
    def test_straddling_records_reported_once(
        self, runner, monkeypatch, technique, shape
    ):
        if shape == "rectangles":  # float corners: the payload path
            records = generate_rectangles(
                600, "uniform", seed=8, space=self.SPACE,
                avg_side_fraction=0.06,
            )
            spied = (ColumnarPayload, "indices_owned_in")
        else:  # no payload: the record path
            records = generate_polygons(
                400, "uniform", seed=8, space=self.SPACE,
                avg_radius_fraction=0.04,
            )
            spied = (range_query_module, "_owned_by_cell")
        calls = []
        real = getattr(*spied)

        def spy(*args):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(*spied, spy)
        runner.fs.create_file("f", records)
        build_index(runner, "f", "idx", technique)
        blocks = runner.fs.get("idx").blocks
        assert sum(map(len, blocks)) > len(records)  # records straddle cells
        assert {b.columnar is None for b in blocks} == {shape == "polygons"}
        for q in (Rectangle(150.0, 150.0, 650.0, 550.0), self.SPACE):
            got = range_query_spatial(runner, "idx", q, use_local_index=False)
            expected = [r for r in records if q.intersects(shape_mbr(r))]
            assert len(got.answer) == len(expected)
            assert sorted(map(repr, got.answer)) == sorted(map(repr, expected))
        assert calls
