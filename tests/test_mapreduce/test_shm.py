"""Shared-memory chunk dispatch: stand-ins, lifecycle, leak-freedom."""

import gc
import pickle

from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.geometry import Point, Rectangle
from repro.mapreduce import shm
from repro.mapreduce.columnar import ColumnarPayload
from repro.mapreduce.shm import ShmArena, ShmBlock, prepare_chunks
from repro.mapreduce.types import InputSplit


def build_system(**kwargs):
    sh = SpatialHadoop(num_nodes=2, block_capacity=100,
                       job_overhead_s=0.01, **kwargs)
    sh.load("pts", generate_points(600, "uniform", seed=5))
    sh.index("pts", "pts_idx", technique="str")
    return sh


def map_chunk_for(fs, name):
    """A map-wave-shaped chunk over every block of ``name``."""
    tasks = [
        (i, 1, InputSplit(file=name, block_index=i, block=block))
        for i, block in enumerate(fs.get(name).blocks)
    ]
    return ("job", "reader", tasks)


class TestPrepareChunks:
    def test_reduce_chunks_pass_through(self):
        chunks = [("shipped", [("key", [1, 2, 3])])]
        shipped, arena = prepare_chunks(chunks)
        assert arena is None
        assert shipped == chunks

    def test_non_columnar_blocks_pass_through(self):
        sh = build_system()
        # Tuple records never get a columnar payload.
        sh.load("pairs", [("a", i) for i in range(50)])
        chunk = map_chunk_for(sh.fs, "pairs")
        shipped, arena = prepare_chunks([chunk])
        assert arena is None
        assert shipped == [chunk]

    def test_eligible_blocks_become_stand_ins(self):
        sh = build_system()
        chunk = map_chunk_for(sh.fs, "pts")
        shipped, arena = prepare_chunks([chunk])
        try:
            assert arena is not None
            for _, _, split in shipped[0][2]:
                assert isinstance(split.block, ShmBlock)
            # Originals are untouched.
            for _, _, split in chunk[2]:
                assert not isinstance(split.block, ShmBlock)
        finally:
            arena.destroy()
        assert shm.live_segments() == []

    def test_shared_block_written_once(self):
        sh = build_system()
        block = sh.fs.get("pts").blocks[0]
        split = InputSplit(file="pts", block_index=0, block=block)
        tasks = [(0, 1, split), (1, 1, split)]
        shipped, arena = prepare_chunks([("job", "reader", tasks)])
        try:
            a = shipped[0][2][0][2].block
            b = shipped[0][2][1][2].block
            assert a is b
            assert arena._cursor == a.columnar.nbytes
        finally:
            arena.destroy()


class TestShmBlock:
    def round_trip(self, sh, name):
        chunk = map_chunk_for(sh.fs, name)
        shipped, arena = prepare_chunks([chunk])
        assert arena is not None
        clones = [
            pickle.loads(pickle.dumps(split.block))
            for _, _, split in shipped[0][2]
        ]
        return chunk, shipped, arena, clones

    def test_pickled_stand_in_rebuilds_records(self):
        sh = build_system()
        chunk, shipped, arena, clones = self.round_trip(sh, "pts")
        try:
            for (_, _, split), clone in zip(chunk[2], clones):
                assert clone.records == split.block.records
                assert len(clone) == len(split.block)
                assert all(type(p.x) is float for p in clone.records)
        finally:
            for clone in clones:
                clone.release()
            shm._ATTACHED.clear()
            arena.destroy()

    def test_rebuilt_local_index_answers_identically(self):
        sh = build_system()
        window = Rectangle(2e5, 2e5, 6e5, 6e5)
        chunk, shipped, arena, clones = self.round_trip(sh, "pts_idx")
        try:
            for (_, _, split), clone in zip(chunk[2], clones):
                original = split.block.metadata.get("local_index")
                assert original is not None
                rebuilt = clone.metadata.get("local_index")
                assert rebuilt.node_capacity == original.node_capacity
                assert rebuilt.checksum() == original.checksum()
                assert rebuilt.search(window) == original.search(window)
                assert rebuilt.knn(window.center, 5) == original.knn(
                    window.center, 5
                )
                del rebuilt  # made of views into the arena: drop before close
        finally:
            for clone in clones:
                clone.release()
            shm._ATTACHED.clear()
            arena.destroy()

    def test_pickle_omits_records_and_index(self):
        sh = build_system()
        chunk, shipped, arena, clones = self.round_trip(sh, "pts_idx")
        try:
            block = sh.fs.get("pts_idx").blocks[0]
            fat = len(pickle.dumps(block))
            thin = len(pickle.dumps(shipped[0][2][0][2].block))
            assert thin < fat / 4
        finally:
            shm._ATTACHED.clear()
            arena.destroy()


class TestLifecycle:
    def test_arena_destroy_is_idempotent(self):
        arena = ShmArena(64)
        name = arena.name
        assert name in shm.live_segments()
        arena.destroy()
        arena.destroy()
        assert shm.live_segments() == []

    def test_del_releases_segment(self):
        arena = ShmArena(64)
        del arena
        gc.collect()
        assert shm.live_segments() == []

    def test_release_chunk_closes_attachments(self):
        payload = ColumnarPayload.from_records(
            [Point(float(i), float(i)) for i in range(10)]
        )
        arena = ShmArena(payload.nbytes)
        try:
            offset = arena.add(payload)
            block = ShmBlock(
                shm_name=arena.name, kind=payload.kind, count=payload.count,
                offset=offset, num_records=payload.count, base_metadata={},
                has_index=False, index_capacity=32,
            )
            chunk = ("job", "reader",
                     [(0, 1, InputSplit(file="f", block_index=0, block=block))])
            assert len(block.records) == 10  # forces an attach
            assert arena.name in shm._ATTACHED
            shm._release_chunk(chunk)
            assert arena.name not in shm._ATTACHED
        finally:
            arena.destroy()
        assert shm.live_segments() == []


class TestNoLeaks:
    WINDOW = Rectangle(2e5, 2e5, 6e5, 6e5)

    def test_parallel_wave_leaves_no_segments(self):
        sh = build_system(workers=2)
        try:
            result = sh.range_query("pts_idx", self.WINDOW)
            assert result.answer
        finally:
            sh.runner.close()
        assert shm.live_segments() == []

    def test_broken_pool_wave_leaves_no_segments(self):
        # kill:map:1 murders a worker mid-wave -> BrokenProcessPool ->
        # pool rebuild. The arena must still be destroyed.
        sh = build_system(workers=2, faults="seed:3,kill:map:1")
        try:
            result = sh.range_query("pts_idx", self.WINDOW)
            assert result.answer
        finally:
            sh.runner.close()
        assert shm.live_segments() == []

    def test_parallel_matches_serial(self):
        serial = build_system()
        parallel = build_system(workers=2)
        try:
            a = serial.range_query("pts_idx", self.WINDOW)
            b = parallel.range_query("pts_idx", self.WINDOW)
            assert sorted(a.answer) == sorted(b.answer)
        finally:
            serial.runner.close()
            parallel.runner.close()
        assert shm.live_segments() == []
