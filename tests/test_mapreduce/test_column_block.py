"""The block wire format: how a sealed block reaches a pool worker.

The pool pickles with ``multiprocessing``'s ``ForkingPickler``, which
pickles a :class:`Block` as plain pickle does. A block with a columnar
payload pickles as that payload, its metadata, checksum and replica
map, without its records: the shipped block stands in for the driver's
and thaws its records from the columns only when a map function reads
them. No block carries its local index: a worker derives it from the
columns, as the driver does.
"""

import pickle
from multiprocessing.reduction import ForkingPickler

import pytest

from repro import SpatialHadoop
from repro.core import Feature
from repro.datagen import generate_points, generate_polygons
from repro.datagen.shapes import generate_rectangles
from repro.geometry import Point, Rectangle
from repro.index.rtree import local_index
from repro.mapreduce import Counter, Job
from repro.mapreduce.fs import Block
from repro.mapreduce.runtime import _run_task
from repro.mapreduce.types import InputSplit
from repro.operations.range_count import _count_indexed_map, _count_scan_map

WINDOW = Rectangle(2e5, 2e5, 6e5, 6e5)


def build_system(**kwargs):
    sh = SpatialHadoop(num_nodes=2, block_capacity=100,
                       job_overhead_s=0.01, **kwargs)
    sh.load("pts", generate_points(600, "uniform", seed=5))
    sh.index("pts", "pts_idx", technique="str")
    sh.load("rects", generate_rectangles(300, "uniform", seed=6))
    sh.index("rects", "rects_idx", technique="str")
    return sh


def map_chunk_for(fs, name):
    """A map-wave chunk over every block of ``name``."""
    tasks = [
        (i, 1, InputSplit(file=name, block_index=i, block=block))
        for i, block in enumerate(fs.get(name).blocks)
    ]
    return ("job", "reader", tasks)


def ship(obj):
    """``obj`` as a pool worker receives it."""
    return pickle.loads(ForkingPickler.dumps(obj))


def thawed(block):
    """Whether ``block`` holds its records (a payload block thaws them
    on first read)."""
    return "records" in vars(block)


class TestForkingPickler:
    def test_eligible_blocks_become_stand_ins(self):
        sh = build_system()
        for name in ("pts", "pts_idx", "rects", "rects_idx"):
            for block in sh.fs.get(name).blocks:
                clone = ship(block)
                assert type(clone) is Block, name
                # Neither records nor the tree were pickled.
                assert not thawed(clone) and clone.local_view is None
                assert clone.columnar.kind == block.columnar.kind
                assert len(clone) == len(block)
                assert not thawed(clone)  # len reads the payload
                assert thawed(block)  # the original is untouched

    def test_non_columnar_blocks_pass_through(self):
        sh = build_system()
        sh.load("pairs", [("a", i) for i in range(50)])
        sh.load("polys", generate_polygons(50, "uniform", seed=7))
        sh.index("polys", "polys_idx", technique="str")
        for name in ("pairs", "polys", "polys_idx"):
            for block in sh.fs.get(name).blocks:
                assert block.columnar is None, name
                assert bytes(ForkingPickler.dumps(block)) == pickle.dumps(
                    block
                )
                clone = ship(block)
                assert type(clone) is Block, name
                assert clone.records == block.records
                assert clone.checksum == block.checksum

    def test_feature_blocks_ship_as_columns(self):
        sh = build_system()
        sh.load("features", [
            Feature(Point(float(i), float(i)), {"id": i}) for i in range(50)
        ])
        for block in sh.fs.get("features").blocks:
            clone = ship(block)
            assert not thawed(clone)
            assert clone.columnar.attributes == block.columnar.attributes
            assert clone.records == block.records
            assert [f.attributes for f in clone.records] == [
                f.attributes for f in block.records
            ]

    def test_reduce_chunks_pass_through(self):
        chunk = ("job", "reducer", [(0, 1, ("key", [1, 2, 3]))])
        assert bytes(ForkingPickler.dumps(chunk)) == pickle.dumps(chunk)

    def test_shared_block_written_once(self):
        sh = build_system()
        block = sh.fs.get("pts").blocks[0]
        tasks = [
            (i, 1, InputSplit(file="pts", block_index=i, block=block))
            for i in range(2)
        ]
        raw = ForkingPickler.dumps(("job", "reader", tasks))
        assert len(raw) < 2 * block.columnar.nbytes
        shipped = pickle.loads(raw)
        assert shipped[2][0][2].block is shipped[2][1][2].block


class TestColumnBlock:
    def test_pickled_stand_in_rebuilds_records(self):
        sh = build_system()
        for name in ("pts", "rects_idx"):
            chunk = ship(map_chunk_for(sh.fs, name))
            originals = sh.fs.get(name).blocks
            for (_, _, split), block in zip(chunk[2], originals):
                clone = split.block
                assert clone.records == block.records
                assert list(clone) == block.records
                assert len(clone) == len(block)
                assert all(type(r.x1 if name == "rects_idx" else r.x)
                           is float for r in clone.records)

    def test_rebuilt_local_index_answers_identically(self):
        sh = build_system()
        for name in ("pts_idx", "rects_idx"):
            for block in sh.fs.get(name).blocks:
                original = local_index(block)
                rebuilt = local_index(ship(block))
                assert rebuilt.node_capacity == original.node_capacity
                for a, b in zip(rebuilt.columns + rebuilt.leaves,
                                original.columns + original.leaves):
                    assert a.tolist() == b.tolist()
                assert rebuilt.search(WINDOW) == original.search(WINDOW)
                assert rebuilt.knn(WINDOW.center, 5) == original.knn(
                    WINDOW.center, 5
                )

    def test_pickle_omits_records_and_index(self):
        sh = build_system()
        block = sh.fs.get("pts_idx").blocks[0]
        local_index(block)  # a derived view is never pickled
        assert pickle.loads(pickle.dumps(block)).local_view is None
        assert ship(block).local_view is None
        # The workspace's pickle and the pool's are the columns (16 bytes
        # per point) plus the metadata, checksum and replica map; neither
        # carries the records (about 28 bytes more per point for this
        # 100-point block).
        for raw in (pickle.dumps(block), ForkingPickler.dumps(block)):
            assert len(raw) < block.columnar.nbytes + 512
            assert b"repro.geometry.point" not in bytes(raw)


@pytest.mark.usefixtures("pool_pinned")
class TestPoolDispatch:
    def test_parallel_matches_serial(self):
        serial = build_system()
        parallel = build_system(workers=2)
        try:
            for name in ("pts_idx", "rects_idx"):
                a = serial.range_query(name, WINDOW)
                b = parallel.range_query(name, WINDOW)
                assert a.answer == b.answer
                assert a.counters.as_dict() == b.counters.as_dict()
            assert parallel.runner.executor.fallbacks == 0
        finally:
            serial.runner.close()
            parallel.runner.close()

    def test_broken_pool_wave_matches_serial(self):
        # kill:map:1 murders a worker mid-wave -> BrokenProcessPool ->
        # pool rebuild; the re-dispatched blocks still answer correctly.
        serial = build_system()
        parallel = build_system(workers=2, faults="seed:3,kill:map:1")
        try:
            a = serial.range_query("pts_idx", WINDOW)
            b = parallel.range_query("pts_idx", WINDOW)
            assert b.answer and a.answer == b.answer
            assert parallel.runner.executor.pool_rebuilds >= 1
        finally:
            serial.runner.close()
            parallel.runner.close()


# ----------------------------------------------------------------------
# Map tasks read their block: a count thaws no record
# ----------------------------------------------------------------------
class TestMapTaskReadsItsBlock:
    @pytest.mark.parametrize("name", ["pts", "pts_idx", "rects", "rects_idx",
                                      "polys"])
    def test_a_counting_task_does_not_thaw_its_block(self, name):
        """The ``range_count`` map task on a block as a pool worker gets
        it: a payload block stays columns, and every block counts its
        length as map input."""
        sh = build_system()
        sh.load("polys", generate_polygons(120, "uniform", seed=7))
        indexed = name.endswith("_idx")
        job = Job(name, _count_indexed_map if indexed else _count_scan_map,
                  config={"query": WINDOW, "dedup": False})
        for i, block in enumerate(sh.fs.get(name).blocks):
            shipped = ship(block)
            assert (shipped.columnar is None) == (name == "polys")
            counts = []
            for form in (block, shipped):
                split = InputSplit(file=name, block_index=i, block=form,
                                   key=block.metadata.get("cell"))
                result = _run_task(job, "map", split)
                assert result.counters[Counter.MAP_INPUT_RECORDS] == len(block)
                assert result.records_in == len(block)
                counts.append(result.emitted)
            assert counts[0] == counts[1]
            if shipped.columnar is not None:
                assert not thawed(shipped)
                # The count masked the payload's own columns: no leaves.
                assert all(a is b for a, b in zip(
                    shipped.local_view[1], shipped.columnar.mbr_columns()))
                assert shipped.local_view[2] is None
