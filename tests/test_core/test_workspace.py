"""Tests for atomic, versioned, checksummed workspace persistence."""

import pickle

import pytest

from repro import SpatialHadoop
from repro.core.workspace import (
    FORMAT_VERSION,
    MAGIC,
    WorkspaceCorruptError,
    WorkspaceError,
    WorkspaceTypeError,
    WorkspaceVersionError,
    has_magic,
    load_workspace,
    save_workspace,
)
from repro.datagen import generate_points, generate_polygons
from repro.geometry import Point, Rectangle
from repro.index.rtree import RTree

TECHNIQUES = ("grid", "str", "quadtree", "kdtree", "zcurve", "hilbert")


def build(technique):
    sh = SpatialHadoop(num_nodes=4, block_capacity=200, job_overhead_s=0.01)
    sh.load("pts", generate_points(900, "uniform", seed=13))
    sh.index("pts", "idx", technique=technique)
    sh.range_query("idx", Rectangle(0, 0, 5e5, 5e5))
    return sh


class TestRoundTrip:
    @pytest.mark.parametrize("technique", TECHNIQUES)
    def test_all_partitioners_survive(self, tmp_path, technique):
        sh = build(technique)
        want = sh.range_query("idx", Rectangle(2e5, 2e5, 8e5, 8e5))
        path = tmp_path / "ws.pkl"
        save_workspace(sh, path)
        sh2 = load_workspace(path, expected_type=SpatialHadoop)

        # The index survives and answers identically.
        assert sh2.fs.list_files() == sh.fs.list_files()
        gindex = sh2.fs.get("idx").metadata["global_index"]
        assert gindex.technique == technique
        got = sh2.range_query("idx", Rectangle(2e5, 2e5, 8e5, 8e5))
        assert sorted(map(str, got.answer)) == sorted(map(str, want.answer))

        # Metrics and history survive too (plus the query runs above).
        assert sh2.history.total_recorded >= sh.history.total_recorded
        assert sh2.metrics.snapshot()["counters"].get("JOBS_TOTAL", 0) > 0

        # Replica maps and checksums ride along.
        for block in sh2.fs.get("idx").blocks:
            assert block.replicas
            assert block.checksum is not None

    def test_file_has_versioned_header(self, tmp_path):
        path = tmp_path / "ws.pkl"
        save_workspace(build("grid"), path)
        raw = path.read_bytes()
        assert raw.startswith(MAGIC)
        assert raw[len(MAGIC)] == FORMAT_VERSION
        assert has_magic(path, MAGIC)

    def test_save_is_atomic_no_temp_left_behind(self, tmp_path):
        path = tmp_path / "ws.pkl"
        save_workspace(build("grid"), path)
        save_workspace(build("str"), path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["ws.pkl"]


class TestCorruption:
    def test_truncated_file_raises_structured_error(self, tmp_path):
        path = tmp_path / "ws.pkl"
        save_workspace(build("grid"), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(WorkspaceCorruptError, match="truncated"):
            load_workspace(path)

    def test_flipped_byte_raises_structured_error(self, tmp_path):
        path = tmp_path / "ws.pkl"
        save_workspace(build("grid"), path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(WorkspaceCorruptError, match="checksum"):
            load_workspace(path)

    def test_truncated_header_raises(self, tmp_path):
        path = tmp_path / "ws.pkl"
        path.write_bytes(MAGIC + b"\x02")
        with pytest.raises(WorkspaceCorruptError):
            load_workspace(path)

    def test_future_format_version_raises(self, tmp_path):
        path = tmp_path / "ws.pkl"
        save_workspace(build("grid"), path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = FORMAT_VERSION + 1
        path.write_bytes(bytes(raw))
        with pytest.raises(WorkspaceVersionError):
            load_workspace(path)

    def test_previous_format_is_refused_with_a_rebuild_hint(self, tmp_path):
        # A v2 payload holds object R-trees whose classes are gone; the
        # version check must refuse it before unpickling is attempted.
        path = tmp_path / "ws.pkl"
        save_workspace(build("grid"), path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(WorkspaceVersionError, match="rebuild the index"):
            load_workspace(path)

    def test_missing_file_raises_workspace_error(self, tmp_path):
        with pytest.raises(WorkspaceError):
            load_workspace(tmp_path / "nope.pkl")


class TestCompatibility:
    def test_headerless_pickle_is_refused(self, tmp_path):
        path = tmp_path / "plain.pkl"
        path.write_bytes(pickle.dumps(build("grid")))
        assert not has_magic(path, MAGIC)
        with pytest.raises(WorkspaceCorruptError, match="no workspace magic"):
            load_workspace(path, expected_type=SpatialHadoop)

    def test_v3_header_is_refused_with_a_rebuild_hint(self, tmp_path):
        # v3 blocks may lack their columnar payload and column checksum.
        path = tmp_path / "ws.pkl"
        save_workspace(build("grid"), path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = 3
        path.write_bytes(bytes(raw))
        with pytest.raises(WorkspaceVersionError, match="rebuild the index"):
            load_workspace(path)

    def test_corrupt_legacy_pickle_raises_structured_error(self, tmp_path):
        path = tmp_path / "legacy.pkl"
        path.write_bytes(b"not a pickle at all")
        with pytest.raises(WorkspaceCorruptError):
            load_workspace(path)

    def test_v4_round_trip_passes_fsck(self, tmp_path):
        sh = build("kdtree")
        path = tmp_path / "ws.pkl"
        save_workspace(sh, path)
        sh2 = load_workspace(path, expected_type=SpatialHadoop)
        report = sh2.fsck()
        assert report.healthy and not report.issues
        for block in sh2.fs.get("pts").blocks:
            assert block.columnar is not None
            assert block.checksum == block.columnar.checksum()

    def test_no_block_stores_a_local_index(self, tmp_path):
        """Index, seal, save and load: no block's metadata holds an
        R-tree at any step, and the views queries derived stay behind."""
        sh = SpatialHadoop(num_nodes=4, block_capacity=100,
                           job_overhead_s=0.01)
        sh.load("pts", generate_points(400, "uniform", seed=13))
        sh.load("polys", generate_polygons(150, "uniform", seed=14))
        for name in ("pts", "polys"):
            sh.index(name, f"{name}_idx", technique="str+")
            sh.knn(f"{name}_idx", Point(5e5, 5e5), 5)

        def blocks(system):
            return [b for name in system.fs.list_files()
                    for b in system.fs.get(name).blocks]

        def stored_trees(system):
            return [v for b in blocks(system) for v in b.metadata.values()
                    if isinstance(v, RTree)]

        assert all(b.replicas for b in blocks(sh))  # every block is sealed
        assert stored_trees(sh) == []
        path = tmp_path / "ws.pkl"
        save_workspace(sh, path)
        loaded = load_workspace(path, expected_type=SpatialHadoop)
        assert stored_trees(loaded) == []
        assert all(b.local_view is None for b in blocks(loaded))
        assert loaded.fsck().healthy

    def test_foreign_object_raises_type_error(self, tmp_path):
        path = tmp_path / "other.pkl"
        save_workspace({"just": "a dict"}, path)
        with pytest.raises(WorkspaceTypeError):
            load_workspace(path, expected_type=SpatialHadoop)

    def test_expected_type_none_accepts_anything(self, tmp_path):
        path = tmp_path / "any.pkl"
        save_workspace([1, 2, 3], path)
        assert load_workspace(path) == [1, 2, 3]
