"""kNN correctness and the correctness-check round protocol."""

import math

import pytest

from repro import SpatialHadoop
from repro.core.splitter import global_index_of
from repro.datagen import generate_points
from repro.geometry import Point, Rectangle
from repro.index import PARTITIONERS, build_index
from repro.index.partitioners.base import shape_mbr
from repro.observe.trace import Tracer
from repro.operations import knn_hadoop, knn_spatial

SPACE = Rectangle(0, 0, 1000, 1000)


def brute_distances(pts, q, k):
    return sorted(q.distance(p) for p in pts)[:k]


def check(result, pts, q, k):
    got = [d for d, _ in result.answer]
    expected = brute_distances(pts, q, k)
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9)


class TestHadoopKnn:
    @pytest.mark.parametrize("k", [1, 5, 50])
    def test_matches_bruteforce(self, runner, k):
        pts = generate_points(700, "uniform", seed=1, space=SPACE)
        runner.fs.create_file("pts", pts)
        check(knn_hadoop(runner, "pts", Point(500, 500), k), pts, Point(500, 500), k)

    def test_k_larger_than_dataset(self, runner):
        pts = generate_points(20, "uniform", seed=2, space=SPACE)
        runner.fs.create_file("pts", pts)
        result = knn_hadoop(runner, "pts", Point(0, 0), 100)
        assert len(result.answer) == 20

    def test_invalid_k(self, runner):
        runner.fs.create_file("pts", generate_points(10, seed=0))
        with pytest.raises(ValueError):
            knn_hadoop(runner, "pts", Point(0, 0), 0)


@pytest.mark.parametrize("technique", sorted(PARTITIONERS))
class TestSpatialKnn:
    @pytest.mark.parametrize("k", [1, 10])
    def test_matches_bruteforce(self, runner, technique, k):
        pts = generate_points(900, "uniform", seed=3, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", technique)
        q = Point(321, 654)
        check(knn_spatial(runner, "idx", q, k), pts, q, k)

    def test_query_outside_space(self, runner, technique):
        pts = generate_points(500, "uniform", seed=4, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", technique)
        q = Point(5000, 5000)  # far outside every partition
        check(knn_spatial(runner, "idx", q, 5), pts, q, 5)

    def test_query_on_partition_corner(self, runner, technique):
        pts = generate_points(600, "uniform", seed=5, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", technique)
        q = Point(500, 500)
        check(knn_spatial(runner, "idx", q, 8), pts, q, 8)

    def test_gaussian_skew(self, runner, technique):
        pts = generate_points(800, "gaussian", seed=6, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", technique)
        q = Point(100, 900)  # sparse corner: forces correctness rounds
        check(knn_spatial(runner, "idx", q, 10), pts, q, 10)


class TestRoundProtocol:
    def test_interior_query_single_round(self, runner):
        pts = generate_points(2000, "uniform", seed=7, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "grid")
        # A query deep inside a dense partition finds k=3 well within it.
        result = knn_spatial(runner, "idx", Point(500.1, 500.1), 3)
        assert result.rounds <= 2
        check(result, pts, Point(500.1, 500.1), 3)

    def test_reads_few_blocks(self, runner):
        pts = generate_points(3000, "uniform", seed=8, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "str")
        result = knn_spatial(runner, "idx", Point(777, 222), 5)
        assert result.blocks_read < runner.fs.num_blocks("idx")

    def test_huge_k_still_correct(self, runner):
        pts = generate_points(400, "uniform", seed=9, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "kdtree")
        q = Point(500, 500)
        check(knn_spatial(runner, "idx", q, 400), pts, q, 400)

    def test_local_index_ablation(self, runner):
        pts = generate_points(800, "uniform", seed=10, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "quadtree")
        q = Point(250, 750)
        with_li = knn_spatial(runner, "idx", q, 7, use_local_index=True)
        without_li = knn_spatial(runner, "idx", q, 7, use_local_index=False)
        assert [round(d, 9) for d, _ in with_li.answer] == [
            round(d, 9) for d, _ in without_li.answer
        ]


def check_round_two(fs, name, result, q, k):
    """Round 2 carries round 1's k-th squared distance (unbounded when
    round 1 found fewer than k): each partition it reads sends back its
    top-k by ``(squared distance, row)`` among rows inside that bound,
    and it reads exactly the other cells the bound reaches."""
    first, second = result.jobs[0].output, result.jobs[1].output
    dsq_one = sorted(d for found in first for d in found[2].tolist())
    bound = dsq_one[k - 1] if len(dsq_one) >= k else math.inf
    blocks = fs.get(name).blocks
    for b, rows, dsq, distances in second:
        records = blocks[b].records
        ranked = sorted(
            (shape_mbr(r).min_distance_sq_point(q), i)
            for i, r in enumerate(records)
        )
        want = [(d, i) for d, i in ranked if d <= bound][:k]
        assert rows.tolist() == [i for _, i in want]
        assert dsq.tolist() == [d for d, _ in want]
        assert distances == [
            shape_mbr(records[i]).min_distance_point(q) for _, i in want
        ]
    reached = {
        c.cell_id
        for c in global_index_of(fs, name)
        if (c.mbr.min_distance_sq_point(q) <= bound if bound < math.inf
            else c.num_records > 0)
    }
    first_cell = blocks[first[0][0]].metadata["cell_id"]
    stored = {block.metadata["cell_id"] for block in blocks}
    read = {blocks[b].metadata["cell_id"] for b, *_ in second}
    assert read == (reached - {first_cell}) & stored
    return second


class TestBoundedCorrectnessRound:
    """Round 2 carries round 1's k-th squared distance: each partition it
    reads sends back only its top-k among rows inside that bound."""

    def test_round_two_reads_only_rows_inside_the_bound(self, runner):
        pts = generate_points(3000, "uniform", seed=12, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "str")
        runner.recorder.tracer = tracer = Tracer()
        q, k = Point(777, 222), 60
        result = knn_spatial(runner, "idx", q, k)
        assert result.rounds == 2
        check(result, pts, q, k)
        second = check_round_two(runner.fs, "idx", result, q, k)
        # The round span counts candidate rows, not output tuples.
        spans = {s["name"]: s["attrs"] for s in tracer.spans("round")}
        assert spans["knn:round-2"]["candidates"] == sum(
            len(rows) for _, rows, _, _ in second
        )
        assert spans["knn:round-2"]["candidates"] > len(second)

    #: (query, k) -> (rounds, blocks read) on 3000 uniform points (seed
    #: 12), STR, 150-record blocks, as the unbounded correctness round
    #: (every partition's top k, no distance bound) read them on the same
    #: tree: the bound must not change which partitions a round reads.
    ROUNDS = {
        ((777, 222), 1): (1, 1), ((777, 222), 60): (2, 4),
        ((777, 222), 300): (2, 20), ((500, 500), 1): (1, 1),
        ((500, 500), 60): (2, 6), ((31, 968), 60): (1, 1),
        ((31, 968), 300): (2, 20),
    }

    def test_rounds_and_blocks_read_unchanged(self, runner):
        pts = generate_points(3000, "uniform", seed=12, space=SPACE)
        runner.fs.create_file("pts", pts)
        build_index(runner, "pts", "idx", "str")
        for (xy, k), (rounds, blocks_read) in self.ROUNDS.items():
            result = knn_spatial(runner, "idx", Point(*xy), k)
            assert (result.rounds, result.blocks_read) == (rounds, blocks_read)
            check(result, pts, Point(*xy), k)


# ----------------------------------------------------------------------
# Ties: integer-lattice points, k landing on a tie
# ----------------------------------------------------------------------
LATTICE = [Point(1000.0 * i, 1000.0 * j) for i in range(40) for j in range(40)]
TIE_QUERIES = (
    Point(17500.0, 23500.0), Point(12000.0, 31000.0), Point(-3500.0, 41000.0)
)
FILES = ["heap"] + sorted(PARTITIONERS)


def tie_ks(q):
    """k values whose k-th distance the (k+1)-th shares: three that one
    partition (100 rows) can hold, so round 2 is bounded, and one that
    it cannot."""
    dsq = sorted((p.x - q.x) ** 2 + (p.y - q.y) ** 2 for p in LATTICE)
    ks = [k for k in range(1, len(dsq)) if dsq[k - 1] == dsq[k]]
    held = [k for k in ks if k <= 60]
    return held[0], held[len(held) // 2], held[-1], ks[len(ks) // 3]


def check_ties(result, q, k):
    """Exact brute-force distances; the rows strictly inside the k-th
    distance are brute force's, the tied rest lie on it."""
    want = sorted(q.distance(p) for p in LATTICE)[:k]
    assert [d for d, _ in result.answer] == want
    kth = want[-1]
    assert want.count(kth) < sorted(q.distance(p) for p in LATTICE).count(kth)
    inside = sorted(repr(r) for d, r in result.answer if d < kth)
    assert inside == sorted(repr(p) for p in LATTICE if q.distance(p) < kth)
    tied = [r for d, r in result.answer if d == kth]
    assert all(q.distance(r) == kth for r in tied)
    assert len({repr(r) for r in tied}) == len(tied)


def lattice_workspace(workers=None):
    sh = SpatialHadoop(num_nodes=4, block_capacity=100, workers=workers)
    sh.load("heap", LATTICE)
    for technique in sorted(PARTITIONERS):
        sh.index("heap", technique, technique=technique)
    return sh


@pytest.fixture(scope="module")
def lattice():
    sh = lattice_workspace()
    yield sh
    sh.runner.close()


class TestLatticeTies:
    @pytest.mark.parametrize("name", FILES)
    def test_serial_matches_bruteforce(self, lattice, name):
        for q in TIE_QUERIES:
            for k in tie_ks(q):
                result = lattice.knn(name, q, k)
                check_ties(result, q, k)
                if result.rounds >= 2:
                    check_round_two(lattice.fs, name, result, q, k)

    def test_local_index_ablation_agrees(self, lattice):
        for q in TIE_QUERIES:
            for k in tie_ks(q):
                for name in sorted(PARTITIONERS):
                    result = lattice.knn(name, q, k, use_local_index=False)
                    check_ties(result, q, k)
                    assert result.answer == lattice.knn(name, q, k).answer

    @pytest.mark.usefixtures("pool_pinned")
    def test_pool_matches_serial(self, lattice):
        sh = lattice_workspace(workers=2)
        try:
            for q in TIE_QUERIES:
                for k in tie_ks(q):
                    for name in FILES:
                        got = sh.knn(name, q, k)
                        check_ties(got, q, k)
                        want = lattice.knn(name, q, k)
                        assert got.answer == want.answer
                        assert got.counters.as_dict() == (
                            want.counters.as_dict()
                        )
            assert sh.runner.executor.fallbacks == 0
        finally:
            sh.runner.close()
