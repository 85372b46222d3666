"""E2 — range query vs. selectivity (paper: range-query figure).

Paper claim: SpatialHadoop beats the Hadoop full scan by a large factor at
low selectivity because the filter step prunes almost every partition; the
gap narrows as the query window grows and eventually both read the whole
file.
"""

import math

from bench_utils import fmt_s, make_system, metrics_snapshot, speedup

from repro.datagen import generate_points
from repro.geometry import Rectangle
from repro.operations import range_query_hadoop, range_query_spatial

N = 300_000
SELECTIVITIES = [0.0001, 0.001, 0.01, 0.1, 0.5]
TECHNIQUES = ["grid", "str", "str+"]
SPACE = Rectangle(0, 0, 1_000_000, 1_000_000)


def centred_window(selectivity: float) -> Rectangle:
    side = math.sqrt(selectivity) * SPACE.width
    c = SPACE.center
    return Rectangle(c.x - side / 2, c.y - side / 2, c.x + side / 2, c.y + side / 2)


def test_e2_range_query_selectivity(benchmark, report):
    points = generate_points(N, "uniform", seed=1, space=SPACE)
    sh = make_system(block_capacity=3_000)
    sh.load("pts", points)
    for technique in TECHNIQUES:
        sh.index("pts", f"idx_{technique}", technique=technique)
    total_blocks = sh.fs.num_blocks("idx_grid")

    rows = []
    for sel in SELECTIVITIES:
        window = centred_window(sel)
        hadoop = range_query_hadoop(sh.runner, "pts", window)
        row = [f"{sel:g}", len(hadoop.answer), f"{hadoop.blocks_read} blk"]
        for technique in TECHNIQUES:
            spatial = range_query_spatial(sh.runner, f"idx_{technique}", window)
            assert len(spatial.answer) == len(hadoop.answer)
            row.append(
                f"{spatial.blocks_read}/{total_blocks} blk "
                f"({speedup(hadoop.makespan, spatial.makespan)})"
            )
        rows.append(row)

    report.add(
        f"E2: range query, {N:,} uniform points (speedup vs Hadoop scan)",
        ["selectivity", "hits", "hadoop"] + TECHNIQUES,
        rows,
    )

    # Distribution data to go with the timing table: cumulative counters
    # plus the task-duration histogram over every query above.
    snap = metrics_snapshot(sh, "e2-range-query-selectivity")
    assert snap["metrics"]["histograms"]["task_duration_seconds"]["count"] > 0

    window = centred_window(0.001)
    result = benchmark.pedantic(
        lambda: range_query_spatial(sh.runner, "idx_str", window),
        rounds=5,
        iterations=1,
    )
    assert result.blocks_read < total_blocks


def test_e2_local_index_ablation(benchmark, report):
    """Global index vs no pruning. Each partition answers with one mask
    over its columns either way: the block-level local index is no
    longer an option (EXPERIMENTS.md, E2b)."""
    points = generate_points(100_000, "uniform", seed=2, space=SPACE)
    sh = make_system(block_capacity=10_000)
    sh.load("pts", points)
    sh.index("pts", "idx", technique="str")
    window = centred_window(0.05)

    pruned = range_query_spatial(sh.runner, "idx", window)
    no_prune = range_query_spatial(sh.runner, "idx", window, prune=False)
    report.add(
        "E2b: range-query ablations (100k points, selectivity 0.05)",
        ["configuration", "blocks read", "simulated time"],
        [
            ["global index", pruned.blocks_read, fmt_s(pruned.makespan)],
            ["no pruning", no_prune.blocks_read, fmt_s(no_prune.makespan)],
        ],
    )
    assert sorted(pruned.answer) == sorted(no_prune.answer)

    benchmark.pedantic(
        lambda: range_query_spatial(sh.runner, "idx", window),
        rounds=5,
        iterations=1,
    )
