"""Run bundles: collection, the file format's integrity checks, import."""

import pytest

from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.core.workspace import has_magic
from repro.geometry import Rectangle
from repro.observe.bundle import (
    BUNDLE_VERSION,
    MAGIC,
    BundleCorruptError,
    BundleError,
    BundleVersionError,
    collect_bundle,
    import_bundle,
    inspect_bundle,
    read_bundle,
    write_bundle,
)

WINDOW = Rectangle(0, 0, 400_000, 400_000)


@pytest.fixture
def sh():
    sh = SpatialHadoop(num_nodes=4, job_overhead_s=0.01, workers=1)
    sh.eventlog(level="debug")
    sh.telemetry()
    sh.enable_profiling()
    sh.load("pts", generate_points(2_000, "uniform", seed=11))
    sh.index("pts", "idx", technique="str")
    sh.range_query("idx", WINDOW)
    sh.runner.close()
    return sh


class TestCollect:
    def test_doc_captures_every_section(self, sh):
        doc = collect_bundle(sh, name="unit")
        assert doc["bundle_version"] == BUNDLE_VERSION
        assert doc["meta"]["name"] == "unit"
        assert doc["meta"]["num_nodes"] == 4
        names = {f["name"] for f in doc["files"]}
        assert names == {"pts", "idx"}
        indexed = next(f for f in doc["files"] if f["name"] == "idx")
        assert indexed["indexed"] and indexed["cells"]
        assert all({"id", "records", "mbr"} <= set(c) for c in indexed["cells"])
        assert doc["metrics"]["counters"]["JOBS_TOTAL"] >= 1
        assert doc["telemetry"], "scrape log must be captured"
        assert doc["history"]["jobs"], "history must be captured"
        assert any(j["phase_profile"] for j in doc["history"]["jobs"])
        assert doc["eventlog"]["records"], "event log must be captured"
        assert doc["fsck"]["healthy"] is True

    def test_collection_is_read_only(self, sh):
        first = collect_bundle(sh, name="x")
        second = collect_bundle(sh, name="x")
        first["meta"].pop("created_unix")
        second["meta"].pop("created_unix")
        assert first == second

    def test_unarmed_sections_are_explicit(self):
        sh = SpatialHadoop(num_nodes=2, workers=1)
        doc = collect_bundle(sh, fsck=False)
        assert doc["eventlog"] is None
        assert doc["telemetry"] == []
        assert doc["trace"] == []
        assert doc["fsck"] is None


class TestFileFormat:
    def test_round_trip(self, sh, tmp_path):
        doc = collect_bundle(sh, name="rt")
        path = tmp_path / "run.bundle"
        size = write_bundle(doc, path)
        assert size == path.stat().st_size
        assert read_bundle(path) == doc
        assert has_magic(path, MAGIC)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "not.bundle"
        path.write_bytes(b"something else entirely")
        assert not has_magic(path, MAGIC)
        with pytest.raises(BundleCorruptError, match="bad magic"):
            read_bundle(path)

    def test_bit_flip_fails_checksum(self, sh, tmp_path):
        path = tmp_path / "run.bundle"
        write_bundle(collect_bundle(sh), path)
        raw = bytearray(path.read_bytes())
        raw[-10] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(BundleCorruptError, match="checksum"):
            read_bundle(path)

    def test_truncation_detected(self, sh, tmp_path):
        path = tmp_path / "run.bundle"
        write_bundle(collect_bundle(sh), path)
        raw = path.read_bytes()
        path.write_bytes(raw[: len(raw) // 2])
        with pytest.raises(BundleCorruptError, match="truncated"):
            read_bundle(path)

    def test_future_version_rejected(self, sh, tmp_path):
        path = tmp_path / "run.bundle"
        write_bundle(collect_bundle(sh), path)
        raw = bytearray(path.read_bytes())
        raw[len(MAGIC)] = 99  # the version byte
        path.write_bytes(bytes(raw))
        with pytest.raises(BundleVersionError, match="v99"):
            read_bundle(path)

    def test_missing_file_is_a_bundle_error(self, tmp_path):
        with pytest.raises(BundleError):
            read_bundle(tmp_path / "nope.bundle")


class TestImport:
    def test_restores_history_telemetry_and_log(self, sh):
        doc = collect_bundle(sh, name="imp")
        fresh = SpatialHadoop(num_nodes=2, workers=1)
        restored = import_bundle(fresh, doc)
        assert restored["jobs"] == len(doc["history"]["jobs"])
        assert restored["events"] == len(doc["eventlog"]["records"])
        assert fresh.history.to_dict() == doc["history"]
        assert fresh.runner.recorder.telemetry.records == doc["telemetry"]
        assert fresh.runner.recorder.eventlog.records() == doc["eventlog"]["records"]

    def test_imported_workspace_keeps_recording(self, sh):
        doc = collect_bundle(sh)
        fresh = SpatialHadoop(num_nodes=2, workers=1)
        import_bundle(fresh, doc)
        before = len(fresh.runner.recorder.eventlog)
        fresh.load("more", generate_points(200, "uniform", seed=2))
        assert len(fresh.runner.recorder.eventlog) > before
        assert fresh.history.total_recorded == sh.history.total_recorded


class TestInspect:
    def test_summary_lines(self, sh, tmp_path):
        doc = collect_bundle(sh, name="peek")
        text = inspect_bundle(doc, "run.bundle")
        assert "run.bundle" in text and "peek" in text
        assert "2 (1 indexed)" in text
        assert "healthy" in text

    def test_handles_empty_doc(self):
        text = inspect_bundle({})
        assert "event log: not attached" in text
