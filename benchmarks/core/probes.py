"""Layer probes: one fixed-size micro-benchmark per swappable component.

Every traced run executes all of them, whatever the workload, so a layer
metric has the same meaning in each workload's table. A probe calls only
public functions of its module. A later change may delete one of those
(shm dispatch, say): that probe then reports 0 and says so on standard
error, and the benchmark carries on.
"""

from __future__ import annotations

import os
import random
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from typing import Any, Callable, Dict

import harness

#: Fixed probe sizes: independent of --scale so the numbers compare.
N_COLUMN = 1_000_000
N_RECORDS = 10_000
N_SYSTEM = 10_000


def _timed(fn: Callable[[], Any], repeats: int = 5) -> float:
    """Median host-normalised seconds of ``fn`` over ``repeats`` calls."""
    samples = []
    for _ in range(repeats):
        _, raw, factor = harness.timed(fn)
        samples.append(raw / factor)
    return statistics.median(samples)


def _noop_map(_key: Any, _records: Any, _ctx: Any) -> None:
    return None


def _identity_map(_key: Any, records: Any, ctx: Any) -> None:
    for record in records:
        ctx.emit(record[0], record[1])


def _identity_reduce(key: Any, values: Any, ctx: Any) -> None:
    ctx.emit(key, len(values))


def _noop_chunk(chunk: Any) -> Any:
    return chunk


def run_all(seed: int, tmp: Path) -> Dict[str, float]:
    """Every probe metric of ``spec.PER_LAYER`` with source ``probe``."""
    import numpy as np

    from repro import SpatialHadoop
    from repro.datagen import generate_points, generate_polygons
    from repro.geometry import Point, Rectangle

    rng = random.Random(seed)
    out: Dict[str, float] = {}

    def probe(fn: Callable[[], Dict[str, float]], *names: str) -> None:
        try:
            out.update(fn())
        except Exception:  # keep the run alive; the table shows the gap
            print(f"probe unavailable: {names}\n{traceback.format_exc()}",
                  file=sys.stderr)
        for name in names:
            out.setdefault(name, 0.0)

    points = generate_points(N_SYSTEM, "gaussian", seed=seed)
    block = points[:N_RECORDS]
    sh = SpatialHadoop(block_capacity=2_500)
    sh.load("pts", points)
    sh.index("pts", "idx", technique="str")
    centre = block[rng.randrange(len(block))]
    one_pct = Rectangle(centre.x - 2e4, centre.y - 2e4,
                        centre.x + 2e4, centre.y + 2e4)

    def datagen() -> Dict[str, float]:
        n = 20_000
        return {"datagen.points_us_per_rec":
                1e6 * _timed(lambda: generate_points(n, "gaussian", seed),
                             repeats=3) / n}
    probe(datagen, "datagen.points_us_per_rec")

    def kernels() -> Dict[str, float]:
        from repro.geometry import vectorized

        cols = np.random.default_rng(seed).uniform(0, 1e6, (4, N_COLUMN))
        xs, ys = cols[0], cols[1]
        x2s, y2s = xs + 1e4, ys + 1e4
        window = Rectangle(4e5, 4e5, 5e5, 5e5)
        point_scan = _timed(lambda: vectorized.points_in_rect(xs, ys, window))
        rect_scan = _timed(
            lambda: vectorized.rects_intersect(xs, ys, x2s, y2s, window))
        small_x, small_y = xs[:100_000], ys[:100_000]
        topk = _timed(lambda: vectorized.topk_by_distance(
            vectorized.point_distance_sq(small_x, small_y, 5e5, 5e5), 100))
        return {
            "geometry.vectorized.point_scan_mrec_s":
                N_COLUMN / point_scan / 1e6,
            "geometry.vectorized.rect_scan_mrec_s": N_COLUMN / rect_scan / 1e6,
            "geometry.vectorized.topk_ms": 1e3 * topk,
        }
    probe(kernels, "geometry.vectorized.point_scan_mrec_s",
          "geometry.vectorized.rect_scan_mrec_s",
          "geometry.vectorized.topk_ms")

    def shape_mbr() -> Dict[str, float]:
        from repro.index import shape_mbr as mbr_of

        return {"geometry.shape_mbr_us":
                1e6 * _timed(lambda: [mbr_of(p) for p in block]) / len(block)}
    probe(shape_mbr, "geometry.shape_mbr_us")

    def algorithms() -> Dict[str, float]:
        from repro.geometry.algorithms.closest_pair import closest_pair
        from repro.geometry.algorithms.convex_hull import convex_hull
        from repro.geometry.algorithms.farthest_pair import farthest_pair
        from repro.geometry.algorithms.skyline import skyline
        from repro.geometry.algorithms.union import polygon_union

        some = block[:2_500]
        polygons = generate_polygons(100, "uniform", seed=seed,
                                     avg_radius_fraction=0.02)
        runs = {
            "closest_pair": lambda: closest_pair(some),
            "convex_hull": lambda: convex_hull(some),
            "skyline": lambda: skyline(some),
            "farthest_pair": lambda: farthest_pair(some),
            "union": lambda: polygon_union(polygons),
        }
        return {f"geometry.algorithms.{name}_s": _timed(fn, repeats=3)
                for name, fn in runs.items()}
    probe(algorithms, *(f"geometry.algorithms.{a}_s" for a in (
        "closest_pair", "convex_hull", "skyline", "farthest_pair", "union")))

    def partitioners() -> Dict[str, float]:
        from repro.index import PARTITIONERS, shape_mbr as mbr_of

        space = Rectangle(0, 0, 1e6, 1e6)
        sample = rng.sample(points, len(points) // 100)
        mbrs = [mbr_of(p) for p in points[:5_000]]
        plan = sum(
            _timed(lambda cls=cls: cls.create(sample, 16, space))
            for cls in PARTITIONERS.values())
        assign = statistics.fmean(
            _timed(lambda p=cls.create(sample, 16, space):
                   [p.assign(m) for m in mbrs], repeats=3)
            for cls in PARTITIONERS.values())
        return {"index.partition_plan_ms": 1e3 * plan,
                "index.partition_assign_us": 1e6 * assign / len(mbrs)}
    probe(partitioners, "index.partition_plan_ms",
          "index.partition_assign_us")

    def rtree() -> Dict[str, float]:
        from repro.index import RTree

        tree = RTree.from_shapes(block)
        tree.search(one_pct)  # fills the lazily built flat cache
        query = Point(centre.x + 1.0, centre.y + 1.0)
        return {
            "index.rtree.bulk_load_us_per_rec":
                1e6 * _timed(lambda: RTree.from_shapes(block), 3) / len(block),
            "index.rtree.search_us":
                1e6 * _timed(lambda: [tree.search(one_pct) for _ in range(20)])
                / 20,
            "index.rtree.knn_us":
                1e6 * _timed(lambda: [tree.knn(query, 10) for _ in range(50)])
                / 50,
        }
    probe(rtree, "index.rtree.bulk_load_us_per_rec", "index.rtree.search_us",
          "index.rtree.knn_us")

    def sfilter() -> Dict[str, float]:
        from repro.index import Cell
        from repro.index.sfilter import PresenceFilter

        # Two occupied corners: the middle of the bounds is empty, so the
        # probe walks the bitmap and rejects, the path that prunes a job.
        filt = PresenceFilter.build([
            Cell(0, Rectangle(0, 0, 1e5, 1e5)),
            Cell(1, Rectangle(9e5, 9e5, 1e6, 1e6)),
        ])
        empty = Rectangle(4e5, 4e5, 5e5, 5e5)
        if filt.may_overlap(empty):
            raise RuntimeError("the probe's empty region is not empty")
        return {"index.sfilter.reject_us": 1e6 * _timed(
            lambda: [filt.may_overlap(empty) for _ in range(1_000)]) / 1_000}
    probe(sfilter, "index.sfilter.reject_us")

    workspace = tmp / "probe.ws"

    def workspace_io() -> Dict[str, float]:
        from repro.core.workspace import load_workspace, save_workspace

        save = _timed(lambda: save_workspace(sh, workspace), repeats=3)
        load = _timed(lambda: load_workspace(workspace), repeats=3)
        return {
            "core.workspace.save_s": save,
            "core.workspace.load_s": load,
            "core.workspace.bytes_per_record":
                workspace.stat().st_size / (2 * len(points)),
        }
    probe(workspace_io, "core.workspace.save_s", "core.workspace.load_s",
          "core.workspace.bytes_per_record")

    def cli() -> Dict[str, float]:
        src = str(Path(__file__).resolve().parents[2] / "src")
        env = dict(os.environ, PYTHONPATH=src)
        command = [sys.executable, "-m", "repro", "-w", str(workspace),
                   "rangequery", "idx", "--window",
                   f"{one_pct.x1},{one_pct.y1},{one_pct.x2},{one_pct.y2}"]

        def roundtrip() -> None:
            subprocess.run(command, env=env, check=True, timeout=60,
                           stdout=subprocess.DEVNULL)
        return {"cli.roundtrip_s": _timed(roundtrip, repeats=2)}
    probe(cli, "cli.roundtrip_s")

    def fs_and_columnar() -> Dict[str, float]:
        from repro.mapreduce import FileSystem
        from repro.mapreduce.columnar import ColumnarPayload

        def load() -> None:
            FileSystem(default_block_capacity=2_500).create_file("f", block)
        payload = ColumnarPayload.from_records(block)
        n = len(block)
        return {
            "mapreduce.fs.load_us_per_rec": 1e6 * _timed(load) / n,
            "mapreduce.columnar.encode_us_per_rec": 1e6 * _timed(
                lambda: ColumnarPayload.from_records(block)) / n,
            "mapreduce.columnar.materialize_us_per_rec": 1e6 * _timed(
                payload.materialize) / n,
        }
    probe(fs_and_columnar, "mapreduce.fs.load_us_per_rec",
          "mapreduce.columnar.encode_us_per_rec",
          "mapreduce.columnar.materialize_us_per_rec")

    def runtime() -> Dict[str, float]:
        from repro.mapreduce import Job

        sh.load("one", block[:100], block_capacity=100)
        empty = Job(input_file="one", map_fn=_noop_map, name="probe-empty")
        pairs = [(rng.randrange(1_000), i) for i in range(30_000)]
        sh.load("pairs", pairs, block_capacity=5_000)
        shuffle = Job(input_file="pairs", map_fn=_identity_map,
                      reduce_fn=_identity_reduce, num_reducers=4,
                      name="probe-shuffle")
        return {
            "mapreduce.runtime.empty_job_ms": 1e3 * _timed(
                lambda: [sh.runner.run(empty) for _ in range(20)]) / 20,
            "mapreduce.runtime.shuffle_us_per_rec": 1e6 * _timed(
                lambda: sh.runner.run(shuffle), repeats=3) / len(pairs),
        }
    probe(runtime, "mapreduce.runtime.empty_job_ms",
          "mapreduce.runtime.shuffle_us_per_rec")

    def pool_wave() -> Dict[str, float]:
        from repro.mapreduce import ParallelExecutor, SerialExecutor

        chunks = list(range(8))
        pool = ParallelExecutor(2)
        try:
            pool.map_chunks(_noop_chunk, chunks)  # starts the workers
            pooled = _timed(lambda: pool.map_chunks(_noop_chunk, chunks), 9)
        finally:
            pool.close()
        serial = _timed(
            lambda: SerialExecutor().map_chunks(_noop_chunk, chunks), 9)
        return {"mapreduce.executor.pool_wave_ms": 1e3 * (pooled - serial)}
    probe(pool_wave, "mapreduce.executor.pool_wave_ms")

    def fsck() -> Dict[str, float]:
        blocks = sum(sh.fs.num_blocks(name) for name in sh.fs.list_files())
        return {"mapreduce.storage.fsck_us_per_block":
                1e6 * _timed(sh.fsck, repeats=3) / blocks}
    probe(fsck, "mapreduce.storage.fsck_us_per_block")

    def pigeon_parse() -> Dict[str, float]:
        from repro.pigeon import parse
        from workloads import PIGEON_SCRIPT

        script = PIGEON_SCRIPT.format(x1=0.0, y1=0.0, x2=1.0, y2=1.0,
                                      px=0.5, py=0.5)
        return {"pigeon.parse_ms": 1e3 * _timed(
            lambda: [parse(script) for _ in range(20)]) / 20}
    probe(pigeon_parse, "pigeon.parse_ms")

    def admission() -> Dict[str, float]:
        from repro.serve import QueryService, TenantQuota

        # A tight quota, so admission also exercises the shedding branch.
        svc = QueryService(sh, quotas={"t": TenantQuota(max_queue=150)})
        text = f"count idx {one_pct.x1},{one_pct.y1},{one_pct.x2},{one_pct.y2}"
        shed, raw, factor = harness.timed(lambda: sum(
            svc.submit("t", text) is not None for _ in range(200)))
        svc.drain()
        return {"serve.admit_us": 1e6 * raw / factor / 200,
                "serve.shed_total": float(shed)}
    probe(admission, "serve.admit_us", "serve.shed_total")

    def explain() -> Dict[str, float]:
        text = f"range idx {one_pct.x1},{one_pct.y1},{one_pct.x2},{one_pct.y2}"
        return {"observe.explain_ms": 1e3 * _timed(
            lambda: [sh.explain(text) for _ in range(20)]) / 20}
    probe(explain, "observe.explain_ms")

    sh.runner.close()
    return out
