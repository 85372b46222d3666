"""Tests for the durable storage layer: replicas, checksums, fsck."""

import pytest

from repro.mapreduce.columnar import crc, encode
from repro.mapreduce.fs import Block, FileSystem
from repro.mapreduce.storage import (
    BlockUnavailableError,
    Replica,
    StorageManager,
    run_fsck,
)
from repro.observe import MetricsRegistry


def make_fs(num_datanodes=5, replication=3, capacity=10):
    return FileSystem(
        default_block_capacity=capacity,
        num_datanodes=num_datanodes,
        replication=replication,
    )


class TestSealing:
    def test_blocks_are_checksummed_and_placed_on_write(self):
        fs = make_fs()
        entry = fs.create_file("f", list(range(25)))
        for block in entry.blocks:
            assert block.checksum == crc(*encode(block.records))
            assert len(block.replicas) == 3
            # Replicas of one block land on distinct nodes.
            assert len({r.node for r in block.replicas}) == 3

    def test_round_robin_spreads_blocks_across_nodes(self):
        fs = make_fs(num_datanodes=5, replication=1)
        entry = fs.create_file("f", list(range(50)))
        first_nodes = [b.replicas[0].node for b in entry.blocks]
        assert len(set(first_nodes)) > 1

    def test_replication_capped_at_node_count(self):
        storage = StorageManager(num_nodes=2, replication=3)
        assert storage.replication == 2

    def test_invalid_configs_rejected(self):
        with pytest.raises(ValueError):
            StorageManager(num_nodes=0)
        with pytest.raises(ValueError):
            StorageManager(num_nodes=3, replication=0)

    def test_sealing_is_idempotent(self):
        fs = make_fs()
        entry = fs.create_file("f", [1, 2, 3])
        replicas = list(entry.blocks[0].replicas)
        fs.storage.seal_block(entry.blocks[0])
        assert entry.blocks[0].replicas == replicas


class TestReadPath:
    def test_clean_read_has_no_failovers(self):
        fs = make_fs()
        fs.create_file("f", [1, 2, 3])
        assert fs.verify_file_read("f") == (0, 0)

    def test_corrupt_replica_fails_over(self):
        fs = make_fs()
        entry = fs.create_file("f", [1, 2, 3])
        fs.storage.corrupt_replica(entry.blocks[0], 0)
        failovers, corrupt = fs.verify_file_read("f")
        assert (failovers, corrupt) == (1, 1)
        # The data itself is served from the healthy copy.
        assert fs.read_records("f") == [1, 2, 3]

    def test_dead_node_fails_over(self):
        fs = make_fs()
        entry = fs.create_file("f", [1, 2, 3])
        node = entry.blocks[0].replicas[0].node
        # Kill the primary's node without triggering re-replication.
        fs.storage.dead_nodes.add(node)
        failovers, corrupt = fs.verify_file_read("f")
        assert failovers == 1 and corrupt == 0

    def test_all_replicas_gone_raises(self):
        fs = make_fs()
        entry = fs.create_file("f", [1, 2, 3])
        for i in range(len(entry.blocks[0].replicas)):
            fs.storage.corrupt_replica(entry.blocks[0], i)
        with pytest.raises(BlockUnavailableError):
            fs.read_records("f")



class TestLoseNode:
    def test_lost_node_re_replicates(self):
        fs = make_fs(num_datanodes=4, replication=3)
        entry = fs.create_file("f", list(range(30)))
        victim = entry.blocks[0].replicas[0].node
        repaired, repair_s = fs.storage.lose_node(
            victim, fs, io_seconds=1e-5
        )
        assert repaired >= 1
        assert repair_s > 0
        for block in entry.blocks:
            healthy = fs.storage.healthy_replicas(block)
            assert len(healthy) == 3
            assert all(r.node != victim for r in healthy)

    def test_losing_dead_or_unknown_node_is_noop(self):
        fs = make_fs(num_datanodes=3)
        fs.create_file("f", [1])
        assert fs.storage.lose_node(99, fs) == (0, 0.0)
        fs.storage.lose_node(0, fs)
        assert fs.storage.lose_node(0, fs) == (0, 0.0)

    def test_last_alive_node_cannot_be_lost(self):
        fs = make_fs(num_datanodes=2, replication=2)
        fs.create_file("f", [1])
        fs.storage.lose_node(0, fs)
        assert fs.storage.lose_node(1, fs) == (0, 0.0)
        assert fs.storage.is_alive(1)

    def test_target_replication_tracks_alive_nodes(self):
        storage = StorageManager(num_nodes=3, replication=3)
        assert storage.target_replication == 3
        storage.dead_nodes.add(0)
        assert storage.target_replication == 2


class TestFsck:
    def test_clean_namespace_is_healthy(self):
        fs = make_fs()
        fs.create_file("f", list(range(25)))
        report = run_fsck(fs)
        assert report.healthy
        assert report.files_checked == 1
        assert report.blocks_checked == 3
        assert not report.issues
        assert "healthy" in report.render()

    def test_detects_corrupt_replica_and_repairs(self):
        fs = make_fs()
        entry = fs.create_file("f", [1, 2, 3])
        fs.storage.corrupt_replica(entry.blocks[0], 1)
        metrics = MetricsRegistry()
        report = run_fsck(fs, metrics=metrics)
        assert not report.healthy
        assert report.count("corrupt-replica") == 1
        assert report.count("under-replicated") == 1
        snap = metrics.snapshot()["counters"]
        assert snap["BLOCKS_CORRUPT_DETECTED"] == 1
        assert snap["FSCK_RUNS"] == 1

        repaired = run_fsck(fs, repair=True, metrics=metrics)
        assert repaired.healthy
        assert repaired.repaired_count == 2
        assert metrics.snapshot()["counters"]["REPLICAS_REPAIRED"] >= 1
        assert run_fsck(fs).healthy

    def test_detects_payload_checksum_mismatch(self):
        fs = make_fs()
        entry = fs.create_file("f", [1, 2, 3])
        entry.blocks[0].records.append(4)  # bit-rot on the shared payload
        report = run_fsck(fs)
        assert report.count("checksum-mismatch") == 1
        fixed = run_fsck(fs, repair=True)
        assert fixed.healthy
        assert run_fsck(fs).healthy

    def test_reports_lost_block_as_unrepairable(self):
        fs = make_fs()
        entry = fs.create_file("f", [1, 2, 3])
        for i in range(3):
            fs.storage.corrupt_replica(entry.blocks[0], i)
        report = run_fsck(fs, repair=True)
        assert report.count("lost-block") == 1
        assert not report.healthy

    def test_damaged_entry_columns_are_detected_and_restamped(self):
        from repro.core.system import SpatialHadoop
        from repro.datagen import generate_points
        from repro.geometry import Rectangle
        from repro.index.rtree import local_index

        sh = SpatialHadoop(num_nodes=4, block_capacity=100)
        sh.load("pts", generate_points(300, "uniform", seed=3))
        sh.index("pts", "idx", technique="str")
        block = sh.fs.get("idx").blocks[0]
        sealed_crc = block.checksum
        # The local index is a view of the payload's columns: damage to
        # them is damage to the block's one body.
        tree = local_index(block)
        assert tree.columns[0] is block.columnar.columns[0]
        tree.columns[0][0] -= 2e5
        report = run_fsck(sh.fs)
        assert report.count("checksum-mismatch") == 1
        assert report.issues[0].data == {
            "stored": sealed_crc, "actual": block.columnar.checksum(),
        }
        assert run_fsck(sh.fs, repair=True).healthy
        # The repair re-stamps the body as it stands; the records and the
        # local index are derived from it anew.
        assert block.checksum == block.columnar.checksum() != sealed_crc
        assert block.records[0].x == block.columnar.columns[0][0]
        tree = local_index(block)
        assert tree.columns[0][0] == block.records[0].x
        everything = Rectangle(-1e9, -1e9, 1e9, 1e9)
        assert tree.search(everything) == list(range(len(block)))
        assert run_fsck(sh.fs).healthy

    def test_repairs_corrupt_global_index_checksum(self):
        from repro.core.system import SpatialHadoop
        from repro.datagen import generate_points

        sh = SpatialHadoop(num_nodes=4, block_capacity=100)
        sh.load("pts", generate_points(300, "uniform", seed=3))
        sh.index("pts", "idx", technique="grid")
        sh.fs.get("idx").metadata["global_index_crc"] = 1
        report = run_fsck(sh.fs)
        assert report.count("global-index-corrupt") == 1
        assert run_fsck(sh.fs, repair=True).healthy
        assert run_fsck(sh.fs).healthy

    def test_report_serialises(self):
        fs = make_fs()
        entry = fs.create_file("f", [1])
        fs.storage.corrupt_replica(entry.blocks[0], 0)
        doc = run_fsck(fs).to_dict()
        assert doc["issues"] == len(doc["findings"])
        assert doc["by_code"]["corrupt-replica"] == 1


class TestFaultIntegration:
    """Storage faults through the JobRunner / facade."""

    def _workspace(self, faults=None):
        from repro.core.system import SpatialHadoop
        from repro.datagen import generate_points

        sh = SpatialHadoop(
            num_nodes=4, block_capacity=100, job_overhead_s=0.01,
            faults=faults,
        )
        sh.load("pts", generate_points(500, "uniform", seed=7))
        sh.index("pts", "idx", technique="str")
        return sh

    def test_losenode_fires_once_and_charges_makespan(self):
        from repro.geometry import Rectangle

        sh = self._workspace(faults="losenode:0")
        snap = sh.metrics.snapshot()["counters"]
        assert snap.get("DATANODES_LOST") == 1
        assert snap.get("REPLICAS_REPAIRED", 0) >= 1
        # The job that observed the loss paid for the repair traffic.
        charged = [
            rec for rec in sh.history
            if "storage_repair_s" in rec.fault_summary
        ]
        assert len(charged) == 1
        # Subsequent jobs do not re-fire the fault.
        sh.range_query("idx", Rectangle(0, 0, 5e5, 5e5))
        assert sh.metrics.snapshot()["counters"]["DATANODES_LOST"] == 1

    def test_corruptblock_read_fails_over_transparently(self):
        from repro.geometry import Rectangle

        window = Rectangle(0, 0, 5e5, 5e5)
        clean = self._workspace().range_query("idx", window)
        sh = self._workspace(faults="corruptblock:idx:0")
        faulty = sh.range_query("idx", window)
        assert sorted(map(str, faulty.answer)) == sorted(
            map(str, clean.answer)
        )
        assert faulty.counters.as_dict() == clean.counters.as_dict()
        snap = sh.metrics.snapshot()["counters"]
        assert snap.get("BLOCKS_CORRUPT_DETECTED", 0) >= 1
        assert snap.get("READ_FAILOVERS", 0) >= 1

    def test_plan_survives_pickle_without_firing_twice(self):
        import pickle

        sh = self._workspace(faults="losenode:1")
        clone = pickle.loads(pickle.dumps(sh))
        # The fault plan is per-invocation and never rides in a pickle.
        assert clone.runner.faults is None
        assert clone.fs.storage.dead_nodes == {1}


class TestFsckAfterReload:
    def test_record_path_blocks_verify_after_a_reload(self, tmp_path):
        """Load 200 ``Feature(polygon, {"t": str(i % 4)})`` records with
        ``block_capacity=100``, save, load: fsck stays healthy.

        The reloaded records share the interpreter's one-character
        strings where the written ones did not; a checksum over the
        records pickled with the memo on saw different bytes and
        reported ``checksum-mismatch`` on both blocks.
        """
        from repro import Feature, SpatialHadoop
        from repro.core.workspace import load_workspace, save_workspace
        from repro.datagen import generate_polygons

        sh = SpatialHadoop(num_nodes=2, block_capacity=100)
        sh.load("f", [
            Feature(polygon, {"t": str(i % 4)})
            for i, polygon in enumerate(generate_polygons(200, seed=3))
        ])
        assert [b.columnar for b in sh.fs.get("f").blocks] == [None, None]
        assert sh.fsck().healthy
        path = tmp_path / "ws.pkl"
        save_workspace(sh, path)
        back = load_workspace(path)
        report = back.fsck()
        assert report.healthy, [i.code for i in report.issues]
        assert back.fsck(repair=True).repaired_count == 0
        assert [b.checksum for b in back.fs.get("f").blocks] == [
            b.checksum for b in sh.fs.get("f").blocks
        ]
