"""Tests for MapReduce index construction and quality metrics."""

import pytest

from repro.datagen import generate_points, generate_rectangles
from repro.geometry import Point, Rectangle
from repro.index import PARTITIONERS, build_index, measure_quality
from repro.index.rtree import local_index
from repro.mapreduce import ClusterModel, FileSystem, JobRunner
from repro.operations import knn_spatial, range_query_spatial

SPACE = Rectangle(0, 0, 1000, 1000)


def make_runner(records, block_capacity=100):
    fs = FileSystem(default_block_capacity=block_capacity)
    fs.create_file("input", records)
    return JobRunner(fs, ClusterModel(num_nodes=4, job_overhead_s=0.01))


@pytest.mark.parametrize("technique", sorted(PARTITIONERS))
class TestBuildAllTechniques:
    def test_point_index_complete(self, technique):
        pts = generate_points(1000, "uniform", seed=1, space=SPACE)
        runner = make_runner(pts)
        result = build_index(runner, "input", "indexed", technique)
        entry = runner.fs.get("indexed")
        # Points are never replicated: the index stores the input exactly.
        assert sorted(entry.records()) == sorted(pts)
        assert entry.metadata["technique"] == technique
        assert result.global_index.total_records == 1000
        assert result.replication == pytest.approx(1.0)

    def test_partitions_near_capacity(self, technique):
        pts = generate_points(1000, "uniform", seed=2, space=SPACE)
        runner = make_runner(pts, block_capacity=100)
        result = build_index(runner, "input", "indexed", technique)
        # ~10 cells requested; all partitions hold <= a few x capacity.
        assert 4 <= len(result.global_index) <= 40
        for cell in result.global_index:
            assert cell.num_records <= 400

    def test_blocks_carry_cell_and_local_index(self, technique):
        pts = generate_points(300, "uniform", seed=3, space=SPACE)
        runner = make_runner(pts)
        build_index(runner, "input", "indexed", technique)
        for block in runner.fs.get("indexed").blocks:
            assert "cell" in block.metadata
            assert "cell_id" in block.metadata
            assert "local_index" not in block.metadata  # derived, not stored
            local = local_index(block)
            assert len(local) == len(block.records)

    def test_cell_mbr_covers_contents(self, technique):
        pts = generate_points(500, "gaussian", seed=4, space=SPACE)
        runner = make_runner(pts)
        build_index(runner, "input", "indexed", technique)
        for block in runner.fs.get("indexed").blocks:
            cell = block.metadata["cell"]
            for p in block.records:
                assert cell.contains_point(p)

    def test_build_costs_two_jobs(self, technique):
        pts = generate_points(200, "uniform", seed=5, space=SPACE)
        runner = make_runner(pts)
        result = build_index(runner, "input", "indexed", technique)
        assert len(result.jobs) == 2  # sample + partition
        assert result.makespan > 0


class TestBuildEdgeCases:
    def test_unknown_technique(self):
        runner = make_runner(generate_points(10, seed=0))
        with pytest.raises(ValueError, match="unknown technique"):
            build_index(runner, "input", "out", "btree")

    def test_empty_file_rejected(self):
        fs = FileSystem()
        fs.create_file("input", [])
        with pytest.raises(ValueError, match="empty"):
            build_index(JobRunner(fs), "input", "out", "grid")

    def test_output_overwritten(self):
        pts = generate_points(100, seed=6, space=SPACE)
        runner = make_runner(pts)
        build_index(runner, "input", "indexed", "grid")
        build_index(runner, "input", "indexed", "str")  # no FileExistsError
        assert runner.fs.get("indexed").metadata["technique"] == "str"

    def test_local_index_optional(self):
        """A build packs no local index; a kNN query derives one per
        block it reads, and a range query needs none."""
        fs = FileSystem(default_block_capacity=100)
        fs.create_file("input", generate_points(100, seed=7, space=SPACE))
        runner = JobRunner(fs, workers=1)  # the views live in this process
        build_index(runner, "input", "indexed", "grid")
        blocks = runner.fs.get("indexed").blocks
        for block in blocks:
            assert "local_index" not in block.metadata
            assert block.local_view is None
        range_query_spatial(runner, "indexed", SPACE)
        assert all(block.local_view[2] is None for block in blocks)
        result = knn_spatial(runner, "indexed", Point(500.0, 500.0), 3)
        derived = [block.local_view[2] is not None for block in blocks]
        assert sum(derived) == sum(job.blocks_read for job in result.jobs)

    def test_rectangles_replicated_under_disjoint_index(self):
        rects = generate_rectangles(
            400, "uniform", seed=8, space=SPACE, avg_side_fraction=0.08
        )
        runner = make_runner(rects, block_capacity=50)
        result = build_index(runner, "input", "indexed", "str+")
        assert result.replication > 1.0  # spanning records were replicated

    def test_rectangles_not_replicated_under_str(self):
        rects = generate_rectangles(
            400, "uniform", seed=8, space=SPACE, avg_side_fraction=0.08
        )
        runner = make_runner(rects, block_capacity=50)
        result = build_index(runner, "input", "indexed", "str")
        assert result.replication == pytest.approx(1.0)

    def test_deterministic_rebuild(self):
        pts = generate_points(500, "uniform", seed=9, space=SPACE)
        r1, r2 = make_runner(pts), make_runner(pts)
        a = build_index(r1, "input", "indexed", "kdtree", seed=42)
        b = build_index(r2, "input", "indexed", "kdtree", seed=42)
        assert [c.mbr for c in a.global_index] == [c.mbr for c in b.global_index]


class TestQuality:
    def test_disjoint_zero_overlap(self):
        pts = generate_points(800, "uniform", seed=10, space=SPACE)
        runner = make_runner(pts)
        build_index(runner, "input", "indexed", "grid")
        q = measure_quality(runner.fs, "indexed", source_records=800)
        assert q.overlap_ratio == pytest.approx(0.0, abs=1e-9)
        assert q.replication == pytest.approx(1.0)
        assert 0 < q.utilization <= 1.0

    def test_str_low_overlap_on_points(self):
        pts = generate_points(800, "uniform", seed=11, space=SPACE)
        runner = make_runner(pts)
        build_index(runner, "input", "indexed", "str")
        q = measure_quality(runner.fs, "indexed", source_records=800)
        # Tight content MBRs barely overlap for point data.
        assert q.overlap_ratio < 0.2

    def test_load_balance_str_beats_grid_on_skew(self):
        pts = generate_points(2000, "gaussian", seed=12, space=SPACE)
        r_grid, r_str = make_runner(pts), make_runner(pts)
        build_index(r_grid, "input", "indexed", "grid")
        build_index(r_str, "input", "indexed", "str")
        q_grid = measure_quality(r_grid.fs, "indexed", source_records=2000)
        q_str = measure_quality(r_str.fs, "indexed", source_records=2000)
        assert q_str.load_balance_cv < q_grid.load_balance_cv

    def test_quality_fields_populated(self):
        pts = generate_points(500, "uniform", seed=13, space=SPACE)
        runner = make_runner(pts)
        build_index(runner, "input", "indexed", "hilbert")
        q = measure_quality(runner.fs, "indexed", source_records=500)
        assert q.technique == "hilbert"
        assert q.num_partitions >= 1
        assert q.total_area_ratio > 0
        assert q.total_margin_ratio > 0
