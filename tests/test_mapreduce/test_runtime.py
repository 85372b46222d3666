"""End-to-end tests of the MapReduce engine."""

from collections import Counter as PyCounter

import pytest

from repro.mapreduce import (
    ClusterModel,
    Counter,
    FileSystem,
    Job,
    JobRunner,
)


def make_runner(records, block_capacity=4):
    fs = FileSystem()
    fs.create_file("input", records, block_capacity=block_capacity)
    return fs, JobRunner(fs, ClusterModel(num_nodes=4, job_overhead_s=0.0))


def word_count_map(_key, lines, ctx):
    for line in lines:
        for word in line.split():
            ctx.emit(word, 1)


def sum_reduce(key, values, ctx):
    ctx.emit(key, (key, sum(values)))


class TestWordCount:
    LINES = ["a b a", "c a", "b b c", "a"]

    def expected(self):
        counts = PyCounter()
        for line in self.LINES:
            counts.update(line.split())
        return dict(counts)

    def test_basic(self):
        _, runner = make_runner(self.LINES, block_capacity=2)
        job = Job(input_file="input", map_fn=word_count_map, reduce_fn=sum_reduce)
        result = runner.run(job)
        assert dict(result.output) == self.expected()

    def test_with_combiner(self):
        _, runner = make_runner(self.LINES, block_capacity=2)
        job = Job(
            input_file="input",
            map_fn=word_count_map,
            combine_fn=sum_reduce,
            reduce_fn=lambda k, vs, ctx: ctx.emit(k, (k, sum(c for _, c in vs))),
        )
        result = runner.run(job)
        assert dict(result.output) == self.expected()
        # The combiner reduced the shuffled volume.
        assert result.counters[Counter.SHUFFLE_RECORDS] < result.counters[
            Counter.MAP_OUTPUT_RECORDS
        ]

    def test_multiple_reducers_same_answer(self):
        _, runner = make_runner(self.LINES, block_capacity=2)
        job = Job(
            input_file="input",
            map_fn=word_count_map,
            reduce_fn=sum_reduce,
            num_reducers=3,
        )
        result = runner.run(job)
        assert dict(result.output) == self.expected()
        assert result.counters[Counter.REDUCE_TASKS] <= 3


class TestMapOnly:
    def test_emit_goes_to_output(self):
        _, runner = make_runner([1, 2, 3, 4, 5], block_capacity=2)
        job = Job(
            input_file="input",
            map_fn=lambda k, vals, ctx: [ctx.emit(None, v * 10) for v in vals],
        )
        result = runner.run(job)
        assert sorted(result.output) == [10, 20, 30, 40, 50]

    def test_write_output_direct(self):
        _, runner = make_runner([1, 2, 3], block_capacity=1)
        job = Job(
            input_file="input",
            map_fn=lambda k, vals, ctx: [ctx.write_output(v) for v in vals],
        )
        result = runner.run(job)
        assert sorted(result.output) == [1, 2, 3]


class TestEarlyFlushAndReduce:
    def test_mixed_output_paths(self):
        # Map writes evens directly (pruning-style early flush) and sends
        # odds through the reducer.
        def map_fn(_k, vals, ctx):
            for v in vals:
                if v % 2 == 0:
                    ctx.write_output(("direct", v))
                else:
                    ctx.emit("odd", v)

        def reduce_fn(key, values, ctx):
            ctx.emit(key, ("reduced", sorted(values)))

        _, runner = make_runner(list(range(6)), block_capacity=2)
        result = runner.run(
            Job(input_file="input", map_fn=map_fn, reduce_fn=reduce_fn)
        )
        direct = [r for r in result.output if r[0] == "direct"]
        reduced = [r for r in result.output if r[0] == "reduced"]
        assert sorted(v for _, v in direct) == [0, 2, 4]
        assert reduced == [("reduced", [1, 3, 5])]


class TestCountersAndStats:
    def test_block_accounting(self):
        _, runner = make_runner(list(range(10)), block_capacity=3)
        job = Job(input_file="input", map_fn=lambda k, v, c: None)
        result = runner.run(job)
        assert result.counters[Counter.BLOCKS_TOTAL] == 4
        assert result.counters[Counter.BLOCKS_READ] == 4
        assert result.counters[Counter.MAP_INPUT_RECORDS] == 10
        assert result.counters[Counter.MAP_TASKS] == 4
        assert len(result.map_tasks) == 4

    def test_splitter_pruning_counted(self):
        fs = FileSystem()
        fs.create_file("input", list(range(10)), block_capacity=2)

        def half_splitter(fs_, job_):
            from repro.mapreduce.runtime import default_splitter

            return default_splitter(fs_, job_)[:2]

        runner = JobRunner(fs, ClusterModel(num_nodes=2, job_overhead_s=0.0))
        job = Job(
            input_file="input",
            map_fn=lambda k, v, c: None,
            splitter=half_splitter,
        )
        result = runner.run(job)
        assert result.counters[Counter.BLOCKS_READ] == 2
        assert result.counters[Counter.BLOCKS_PRUNED] == 3

    def test_makespan_positive_and_monotone_in_overhead(self):
        fs = FileSystem()
        fs.create_file("input", list(range(100)), block_capacity=10)
        job = Job(
            input_file="input",
            map_fn=lambda k, vals, c: [c.emit(None, v) for v in vals],
            reduce_fn=lambda k, vs, c: c.emit(k, len(vs)),
        )
        cheap = JobRunner(fs, ClusterModel(num_nodes=4, job_overhead_s=0.0)).run(job)
        costly = JobRunner(fs, ClusterModel(num_nodes=4, job_overhead_s=5.0)).run(job)
        assert cheap.makespan > 0
        assert costly.makespan >= cheap.makespan + 4.9

    def test_combiner_must_not_write_output(self):
        def bad_combiner(key, values, ctx):
            ctx.write_output("nope")

        _, runner = make_runner(["a"], block_capacity=1)
        job = Job(
            input_file="input",
            map_fn=word_count_map,
            combine_fn=bad_combiner,
            reduce_fn=sum_reduce,
        )
        with pytest.raises(RuntimeError):
            runner.run(job)


class TestClusterModel:
    def test_schedule_empty(self):
        assert ClusterModel(num_nodes=4).schedule([]) == 0.0

    def test_schedule_single_node_sums(self):
        assert ClusterModel(num_nodes=1).schedule([1.0, 2.0, 3.0]) == 6.0

    def test_schedule_perfect_split(self):
        # Four equal tasks over four nodes: makespan = one task.
        assert ClusterModel(num_nodes=4).schedule([2.0] * 4) == 2.0

    def test_schedule_lpt_bound(self):
        # The classic LPT worst case: optimal is 6 (3+3 / 2+2+2) but LPT
        # yields 7, within its 4/3 - 1/(3m) guarantee.
        makespan = ClusterModel(num_nodes=2).schedule([3.0, 3.0, 2.0, 2.0, 2.0])
        assert makespan == 7.0
        assert makespan <= 6.0 * (4 / 3)

    def test_more_nodes_never_slower(self):
        times = [0.5, 1.5, 2.0, 0.25, 1.0, 3.0]
        small = ClusterModel(num_nodes=2).schedule(times)
        big = ClusterModel(num_nodes=6).schedule(times)
        assert big <= small

    def test_invalid_nodes(self):
        with pytest.raises(ValueError):
            ClusterModel(num_nodes=0)
