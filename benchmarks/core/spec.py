"""The benchmark's contract as data: workloads, metrics, units, bounds.

``BENCHMARK.json`` at the repository root is the committed form of these
tables (``run.py --write-spec`` regenerates it, ``test_harness.py`` checks
the two agree); README.md is their prose form. Every later performance or
simplicity issue names its metric and workload from here.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: Default seed of a manual run; the driver passes its own.
DEFAULT_SEED = 12

#: Seconds of timed passes in one run (the driver's ``--seconds``).
RUN_SECONDS = 10

#: Fewest timed passes and fewest set-up repetitions, however slow.
MIN_PASSES = 3
MIN_SETUPS = 3

#: The variables that select a non-default engine configuration; scrubbed
#: so that the default configuration is what is measured.
SCRUBBED_ENV = (
    "REPRO_WORKERS",
    "REPRO_FAULTS",
    "REPRO_VECTORIZE",
    "REPRO_SHM",
    "REPRO_PROFILE",
)

#: The issue sized the workloads for 4-6 s passes and 30 s runs; the
#: driver's cap (136 runs in 3420 s, set-up repeated inside each run)
#: leaves about 20 s per run, so every record count of the issue is
#: multiplied by this one factor. ``--scale`` multiplies it further.
COMMON_FACTOR = 0.25

#: name -> (why, {size name: record count at --scale 1})
WORKLOADS: Dict[str, Tuple[str, Dict[str, int]]] = {
    "index_build": (
        "Write path: partitioner, STR bulk load, shuffle/sort/reduce and "
        "block sealing do all the work, queries none; a richer local "
        "index bought for reads shows up here as a loss.",
        {"points": 5_000, "rects": 1_500, "block_capacity": 500},
    ),
    "query_mix": (
        "Read path: 60% tiny ops put op_p50_ms on per-job fixed cost and "
        "one index probe, 10% large windows put op_p95_ms on re-test, "
        "thawing and output; index build sits in setup_s.",
        {"points": 30_000, "rects": 5_000, "block_capacity": 2_500},
    ),
    "join_cg": (
        "Batch analytics: rectangle kernels, multi-round shuffles, "
        "driver-side merges and pure-Python geometry dominate; Pigeon "
        "rides here so the language layer is measured on real jobs.",
        {
            "rects": 2_000, "points": 7_500, "knn_points": 1_250,
            "polygons": 200, "voronoi_points": 750, "pois": 5_000,
            "block_capacity": 500,
        },
    ),
    "serve_zipf": (
        "Service path with reads beside a write: about 80% cache hits "
        "put op_p50_ms on parse, plan key, cache and scheduler; misses "
        "and the re-index put op_p95_ms on the engine and invalidation.",
        {
            "points": 20_000, "rects": 2_500, "live_points": 2_500,
            "block_capacity": 2_500,
        },
    ),
    "pool_dispatch": (
        "Same engine, workers=2: pickling, shm arenas and pool wake-ups "
        "dominate the 50 small jobs and matter little on the big ones; "
        "the row on which shm must beat the pool or be deleted.",
        {"points": 10_000, "rects": 1_500, "block_capacity": 500},
    ),
    "armed_batch": (
        "Same op list, serial, with checkpoints, tracing, event log, "
        "profiling and telemetry armed: gives the 5% observability and "
        "checkpoint budgets a stable absolute number.",
        {"points": 10_000, "rects": 1_500, "block_capacity": 500},
    ),
}

#: name -> (unit, better, bound). Times are host-normalised (README,
#: "Steadiness"): measured wall x SPIN_REF_S / calibration-loop time.
#: The issue asked for 10-15%. Ten runs at ten seeds spread (quartile
#: distance / median) by up to 8% on the reference box even after
#: normalisation (13% once, on pool_dispatch), 2-5% typically, and the driver refuses a benchmark whose
#: spread exceeds a bound and asks for a third of the bound: so the times
#: take the largest bound the contract allows.
END_TO_END: Dict[str, Tuple[str, str, float]] = {
    "setup_s": ("s", "lower", 0.25),
    "wall_s": ("s", "lower", 0.25),
    "op_p50_ms": ("ms", "lower", 0.25),
    "op_p95_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MiB", "lower", 0.10),
}

TECHNIQUES = ("grid", "str", "str+", "quadtree", "kdtree", "zcurve", "hilbert")
GOODRICH_AXES = (
    "rounds", "map_tasks", "blocks_read", "shuffle_records", "shuffle_bytes",
    "tasks_retried",
)
QUERY_CLASSES = (
    "range_tiny", "range_1pct", "range_9pct", "range_rects", "count", "knn",
    "range_heap",
)
JOIN_CG_OPS = (
    "join_dj_grid", "join_dj_str", "join_sjmr", "knn_join", "closest_pair",
    "farthest_pair", "skyline", "convex_hull", "union", "voronoi",
)

_ALL = tuple(WORKLOADS)


def metric_label(technique: str) -> str:
    """A technique's name inside a metric name (``+`` is not allowed)."""
    return technique.replace("+", "_plus")


def _moves(metric: str, *workloads: str) -> List[Tuple[str, str]]:
    return [(metric, w) for w in workloads]


def _per_layer() -> Dict[str, dict]:
    """name -> {layer, unit, better, exact, moves, source}.

    ``source`` is ``probe`` (fixed-size micro-benchmark, the same in every
    traced run), ``generic`` (derived from the traced workload itself) or
    the name of the workload whose spans and counters it is read from.
    """
    rows: Dict[str, dict] = {}

    def add(name, unit, better, moves, source="probe", exact=False):
        rows[name] = {
            "layer": name.split(".")[0], "unit": unit, "better": better,
            "exact": exact, "moves": moves, "source": source,
        }

    add("datagen.points_us_per_rec", "us", "lower", _moves("setup_s", *_ALL))
    add("geometry.vectorized.point_scan_mrec_s", "Mrec/s", "higher",
        _moves("op_p95_ms", "query_mix"))
    add("geometry.vectorized.rect_scan_mrec_s", "Mrec/s", "higher",
        _moves("wall_s", "join_cg"))
    add("geometry.vectorized.topk_ms", "ms", "lower",
        _moves("op_p50_ms", "query_mix"))
    add("geometry.shape_mbr_us", "us", "lower",
        _moves("wall_s", "index_build") + _moves("op_p95_ms", "query_mix"))
    for algo in ("closest_pair", "convex_hull", "skyline", "farthest_pair",
                 "union"):
        add(f"geometry.algorithms.{algo}_s", "s", "lower",
            _moves("wall_s", "join_cg"))
    for tech in TECHNIQUES:
        add(f"index.build_s.{metric_label(tech)}", "s", "lower",
            _moves("wall_s", "index_build") + _moves("setup_s", "query_mix"),
            source="index_build")
    add("index.partition_plan_ms", "ms", "lower",
        _moves("wall_s", "index_build"))
    add("index.partition_assign_us", "us", "lower",
        _moves("wall_s", "index_build"))
    add("index.rtree.bulk_load_us_per_rec", "us", "lower",
        _moves("wall_s", "index_build"))
    add("index.rtree.search_us", "us", "lower",
        _moves("op_p95_ms", "query_mix"))
    add("index.rtree.knn_us", "us", "lower", _moves("op_p50_ms", "query_mix"))
    add("index.sfilter.reject_us", "us", "lower",
        _moves("op_p50_ms", "query_mix"))
    add("index.replication_factor", "ratio", "lower",
        _moves("wall_s", "index_build", "join_cg"),
        source="index_build", exact=True)
    add("core.pruning_ratio", "ratio", "higher",
        _moves("wall_s", "query_mix"), source="query_mix", exact=True)
    add("core.rows_examined_per_result", "ratio", "lower",
        _moves("op_p95_ms", "query_mix"), source="query_mix", exact=True)
    add("core.workspace.save_s", "s", "lower", _moves("setup_s", *_ALL))
    add("core.workspace.load_s", "s", "lower", _moves("setup_s", *_ALL))
    add("core.workspace.bytes_per_record", "B", "lower",
        _moves("setup_s", *_ALL), exact=True)
    add("mapreduce.fs.load_us_per_rec", "us", "lower",
        _moves("setup_s", *_ALL) + _moves("wall_s", "index_build"))
    add("mapreduce.columnar.encode_us_per_rec", "us", "lower",
        _moves("wall_s", "index_build"))
    add("mapreduce.columnar.materialize_us_per_rec", "us", "lower",
        _moves("op_p95_ms", "query_mix"))
    add("mapreduce.runtime.empty_job_ms", "ms", "lower",
        _moves("op_p50_ms", "query_mix", "serve_zipf"))
    add("mapreduce.runtime.shuffle_us_per_rec", "us", "lower",
        _moves("wall_s", "index_build", "join_cg"))
    add("mapreduce.executor.pool_wave_ms", "ms", "lower",
        _moves("wall_s", "pool_dispatch"))
    add("mapreduce.executor.pool_vs_serial_ratio", "ratio", "lower",
        _moves("wall_s", "pool_dispatch"), source="pool_dispatch")
    add("mapreduce.executor.cpu_s", "s", "lower",
        _moves("wall_s", "pool_dispatch"), source="pool_dispatch")
    add("mapreduce.shm.segments_leaked", "count", "lower",
        _moves("wall_s", "pool_dispatch"), source="generic", exact=True)
    add("mapreduce.checkpoint.commit_ms_per_wave", "ms", "lower",
        _moves("wall_s", "armed_batch"), source="armed_batch")
    add("mapreduce.checkpoint.bytes_per_wave", "B", "lower",
        _moves("wall_s", "armed_batch"), source="armed_batch")
    add("mapreduce.storage.fsck_us_per_block", "us", "lower",
        _moves("wall_s", "armed_batch"))
    add("mapreduce.cluster.makespan_s", "s", "lower",
        _moves("wall_s", *_ALL), source="generic")
    for axis in GOODRICH_AXES:
        add(f"mapreduce.{axis}", "count", "lower", _moves("wall_s", *_ALL),
            source="generic", exact=True)
    for cls in QUERY_CLASSES:
        add(f"operations.{cls}_ms", "ms", "lower",
            _moves("op_p95_ms" if cls in ("range_9pct", "range_heap")
                   else "op_p50_ms", "query_mix"),
            source="query_mix")
    add("operations.range_index_speedup", "ratio", "higher",
        _moves("op_p95_ms", "query_mix"), source="query_mix")
    for op in JOIN_CG_OPS:
        add(f"operations.{op}_s", "s", "lower", _moves("wall_s", "join_cg"),
            source="join_cg")
    add("pigeon.parse_ms", "ms", "lower", _moves("wall_s", "join_cg"))
    add("pigeon.script_s", "s", "lower", _moves("wall_s", "join_cg"),
        source="join_cg")
    add("pigeon.overhead_ratio", "ratio", "lower",
        _moves("wall_s", "join_cg"), source="join_cg")
    add("serve.hit_ms", "ms", "lower", _moves("op_p50_ms", "serve_zipf"),
        source="serve_zipf")
    add("serve.miss_ms", "ms", "lower", _moves("op_p95_ms", "serve_zipf"),
        source="serve_zipf")
    add("serve.cache_hit_ratio", "ratio", "higher",
        _moves("op_p50_ms", "serve_zipf"), source="serve_zipf", exact=True)
    add("serve.overhead_ratio", "ratio", "lower",
        _moves("op_p95_ms", "serve_zipf"), source="serve_zipf")
    add("serve.admit_us", "us", "lower", _moves("op_p50_ms", "serve_zipf"))
    add("serve.shed_total", "count", "lower",
        _moves("op_p50_ms", "serve_zipf"), exact=True)
    add("observe.armed_overhead_ratio", "ratio", "lower",
        _moves("wall_s", "armed_batch"), source="armed_batch")
    add("observe.explain_ms", "ms", "lower",
        _moves("op_p50_ms", "serve_zipf"))
    add("cli.roundtrip_s", "s", "lower", _moves("setup_s", *_ALL))
    add("trace.coverage", "ratio", "higher", _moves("wall_s", *_ALL),
        source="generic")
    add("trace.overhead_ratio", "ratio", "lower", _moves("wall_s", *_ALL),
        source="generic")
    add("host.spin_s", "s", "lower", _moves("wall_s", *_ALL),
        source="generic")
    return rows


PER_LAYER: Dict[str, dict] = _per_layer()


def benchmark_json() -> dict:
    """The driver-facing contract, exactly the keys it accepts."""
    return {
        "command": ["python3", "benchmarks/core/run.py"],
        "paths": ["benchmarks/core"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, (why, _) in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, (u, b, bound) in END_TO_END.items()
        ],
        "per_layer": [
            {"name": n, "unit": row["unit"], "better": row["better"]}
            for n, row in PER_LAYER.items()
        ],
    }
