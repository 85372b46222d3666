"""Edge cases of the MapReduce runtime."""

import pickle

import pytest

from repro.mapreduce import ClusterModel, FileSystem, Job, JobRunner


def make_runner(records, capacity=3):
    fs = FileSystem()
    fs.create_file("in", records, block_capacity=capacity)
    return JobRunner(fs, ClusterModel(num_nodes=2, job_overhead_s=0.0))


class TestMultiInput:
    def test_input_files_property(self):
        assert Job(input_file="a", map_fn=lambda k, v, c: None).input_files == ["a"]
        assert Job(
            input_file=["a", "b"], map_fn=lambda k, v, c: None
        ).input_files == ["a", "b"]

    def test_two_files_all_blocks_mapped(self):
        fs = FileSystem()
        fs.create_file("a", [1, 2, 3], block_capacity=2)
        fs.create_file("b", [4, 5], block_capacity=2)
        runner = JobRunner(fs, ClusterModel(num_nodes=1, job_overhead_s=0))
        seen = []

        def map_fn(_k, records, ctx):
            seen.append((ctx.split.file, tuple(records)))

        runner.run(Job(input_file=["a", "b"], map_fn=map_fn))
        files = {f for f, _ in seen}
        assert files == {"a", "b"}
        assert sum(len(r) for _, r in seen) == 5


class TestReduceKeyOrder:
    def test_sortable_keys_reduced_in_order(self):
        runner = make_runner(list(range(9)))
        order = []

        def map_fn(_k, records, ctx):
            for v in records:
                ctx.emit(v % 3, v)

        def reduce_fn(key, _vs, ctx):
            order.append(key)

        runner.run(
            Job(input_file="in", map_fn=map_fn, reduce_fn=reduce_fn)
        )
        assert order == sorted(order)

    def test_unsortable_keys_still_reduce(self):
        runner = make_runner([1, 2, 3, 4])

        def map_fn(_k, records, ctx):
            for v in records:
                # Mixed, non-comparable key types.
                ctx.emit(v if v % 2 else str(v), v)

        def reduce_fn(key, vs, ctx):
            ctx.emit(key, (key, sum(vs)))

        result = runner.run(
            Job(input_file="in", map_fn=map_fn, reduce_fn=reduce_fn)
        )
        assert dict(result.output) == {1: 1, 3: 3, "2": 2, "4": 4}


class TestShuffleBytes:
    def test_shuffle_bytes_counted(self):
        runner = make_runner(["hello"] * 10, capacity=2)

        def map_fn(_k, records, ctx):
            for v in records:
                ctx.emit(1, v)

        result = runner.run(
            Job(
                input_file="in",
                map_fn=map_fn,
                reduce_fn=lambda k, vs, ctx: ctx.emit(k, len(vs)),
            )
        )
        assert result.counters["SHUFFLE_BYTES"] >= 10 * len("hello")

    def test_buffers_are_sized_by_length_not_by_the_first_one_seen(self):
        """One type covers buffers of any length, so memoising a size per
        type (as for tuples and shapes) would charge them all alike."""
        from array import array

        import numpy as np

        from repro.mapreduce.runtime import _RecordSizer

        sizer = _RecordSizer()
        small, large = np.arange(3), np.arange(3000)
        assert sizer.size(large) - sizer.size(small) == 8 * (3000 - 3)
        assert sizer.size(small) > small.nbytes  # plus a header
        # Same bytes, same charge, whichever buffer type carries them.
        assert sizer.size(array("q", range(3000))) == sizer.size(large)
        assert sizer.size(memoryview(large)) == sizer.size(large)

    def test_buffers_inside_a_tuple_are_charged_too(self):
        """The index build shuffles ``(block_index, row offsets)``."""
        import numpy as np

        from repro.mapreduce.runtime import _RecordSizer

        sizer = _RecordSizer()
        bare = sizer.size((7, 9))
        few = sizer.size((7, np.arange(10)))
        many = sizer.size((7, np.arange(1000)))
        assert bare < few < many
        assert many - few == 8 * 990
        assert sizer.size((7, 9)) == bare  # the memoised shape is untouched
        assert sizer.total([(0, (1, np.arange(10))), (1, (2, 3))]) == few + bare


class TestWorkspacePickling:
    def test_spatialhadoop_round_trips_through_pickle(self):
        from repro import SpatialHadoop
        from repro.datagen import generate_points
        from repro.geometry import Rectangle

        sh = SpatialHadoop(num_nodes=2, block_capacity=200, job_overhead_s=0)
        pts = generate_points(800, "uniform", seed=1)
        sh.load("pts", pts)
        sh.index("pts", "idx", technique="str")

        clone = pickle.loads(pickle.dumps(sh))
        window = Rectangle(0, 0, 3e5, 3e5)
        before = sorted(sh.range_query("idx", window).answer)
        after = sorted(clone.range_query("idx", window).answer)
        assert before == after
        # The pickled copy is independent: deleting in one does not
        # affect the other.
        clone.fs.delete("idx")
        assert sh.fs.exists("idx")


class TestEmptyInputs:
    def test_empty_file_job(self):
        runner = make_runner([])
        result = runner.run(
            Job(
                input_file="in",
                map_fn=lambda k, v, c: None,
                reduce_fn=lambda k, vs, c: c.emit(k, vs),
            )
        )
        assert result.output == []
        assert result.makespan == pytest.approx(0.0)
        assert result.counters["MAP_TASKS"] == 0

    def test_map_emitting_nothing(self):
        runner = make_runner([1, 2, 3])
        result = runner.run(
            Job(
                input_file="in",
                map_fn=lambda k, v, c: None,
                reduce_fn=lambda k, vs, c: c.emit(k, vs),
            )
        )
        assert result.output == []
        assert result.counters["REDUCE_TASKS"] == 0
