"""E3 — kNN queries (paper: kNN figure).

Paper claim: SpatialHadoop's kNN reads one partition (occasionally a few,
when the k-th circle crosses a boundary) regardless of file size, while
Hadoop scans everything; performance is nearly insensitive to k for
reasonable k.
"""

from bench_utils import make_system, speedup

from repro.datagen import generate_points
from repro.geometry import Point, Rectangle
from repro.operations import knn_hadoop, knn_spatial

SPACE = Rectangle(0, 0, 1_000_000, 1_000_000)


def candidate_rows(sh, result, k):
    """Candidate rows each round sent to the driver, ``+``-joined, and
    what the correctness rounds would send without round 1's bound (every
    partition's full top-k)."""
    blocks = sh.fs.get("idx").blocks
    sent = [sum(len(found[1]) for found in job.output) for job in result.jobs]
    unbounded = sent[0] + sum(
        min(k, len(blocks[found[0]]))
        for job in result.jobs[1:] for found in job.output
    )
    return " + ".join(map(str, sent)), unbounded
KS = [1, 10, 100, 1_000]
SIZES = [50_000, 150_000, 300_000]
QUERY = Point(512_345, 481_234)


def test_e3_knn_vs_k(benchmark, report):
    points = generate_points(300_000, "uniform", seed=1, space=SPACE)
    sh = make_system(block_capacity=10_000)
    sh.load("pts", points)
    sh.index("pts", "idx", technique="str")
    total = sh.fs.num_blocks("idx")

    rows = []
    for k in KS:
        hadoop = knn_hadoop(sh.runner, "pts", QUERY, k)
        spatial = knn_spatial(sh.runner, "idx", QUERY, k)
        assert [round(d, 6) for d, _ in hadoop.answer] == [
            round(d, 6) for d, _ in spatial.answer
        ]
        sent, unbounded = candidate_rows(sh, spatial, k)
        rows.append(
            [
                k,
                f"{hadoop.blocks_read} blk",
                f"{spatial.blocks_read}/{total} blk",
                spatial.rounds,
                sent,
                unbounded,
                speedup(hadoop.makespan, spatial.makespan),
            ]
        )
    report.add(
        "E3: kNN vs k, 300k uniform points",
        ["k", "hadoop", "spatialhadoop", "rounds", "candidates/round",
         "unbounded", "speedup"],
        rows,
    )

    result = benchmark.pedantic(
        lambda: knn_spatial(sh.runner, "idx", QUERY, 10), rounds=5, iterations=1
    )
    assert len(result.answer) == 10


def test_e3_knn_vs_size(benchmark, report):
    rows = []
    for n in SIZES:
        points = generate_points(n, "uniform", seed=2, space=SPACE)
        sh = make_system(block_capacity=10_000)
        sh.load("pts", points)
        sh.index("pts", "idx", technique="grid")
        hadoop = knn_hadoop(sh.runner, "pts", QUERY, 10)
        spatial = knn_spatial(sh.runner, "idx", QUERY, 10)
        rows.append(
            [
                f"{n:,}",
                f"{hadoop.blocks_read} blk",
                f"{spatial.blocks_read} blk",
                speedup(hadoop.makespan, spatial.makespan),
            ]
        )
    report.add(
        "E3b: kNN (k=10) vs input size — SpatialHadoop blocks stay flat",
        ["records", "hadoop", "spatialhadoop", "speedup"],
        rows,
    )

    points = generate_points(100_000, "uniform", seed=3, space=SPACE)
    sh = make_system(block_capacity=10_000)
    sh.load("pts", points)
    sh.index("pts", "idx", technique="grid")
    benchmark.pedantic(
        lambda: knn_spatial(sh.runner, "idx", QUERY, 10), rounds=5, iterations=1
    )
