"""The six workloads: data, system set-up and op lists, all from the seed.

Each builder generates its inputs in the harness process through
``repro.datagen`` and a ``random.Random(seed)``, builds the system through
the public facade, and returns the fixed op list with one oracle per op.
The system under test only ever sees generated inputs.
"""

from __future__ import annotations

import functools
import random
import shutil
import tempfile
import types
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import Feature, SpatialHadoop
from repro.datagen import (
    generate_points,
    generate_polygons,
    generate_rectangles,
)
from repro.geometry import Point, Rectangle
from repro.geometry.algorithms.voronoi import voronoi
from repro.observe import explain
from repro.pigeon import run_script
from repro.serve import QueryService, TenantQuota

import oracles
import spec
import harness
from harness import Op, Workload, canon_pairs, canon_records, record_keys

Builder = Callable[[int, float, Path], Workload]


def _sizes(name: str, scale: float) -> Dict[str, int]:
    return {
        key: max(20, int(round(value * scale)))
        for key, value in spec.WORKLOADS[name][1].items()
    }


def _drop(sh: SpatialHadoop, name: str) -> Callable[[], None]:
    return lambda: sh.fs.delete(name) and None


def _answer(result: Any) -> Any:
    return result.answer


def _canon_answer(result: Any) -> List[str]:
    return canon_records(result.answer)


def _canon_knn(result: Any) -> List[str]:
    return canon_records(record for _distance, record in result.answer)


def _canon_pairs(result: Any) -> List[Any]:
    return canon_pairs(result.answer)


def _canon_file(sh: SpatialHadoop, name: str) -> Callable[[Any], List[str]]:
    """An index build's answer: the distinct records the file now holds."""
    return lambda _result: sorted(set(record_keys(sh.records(name))))


def _pair_distance_sq(result: Any) -> List[str]:
    a, b = result.answer
    return [repr((a.x - b.x) ** 2 + (a.y - b.y) ** 2)] + canon_records((a, b))


def _same_distance(got: List[str], want: List[str]) -> bool:
    return got[0] == want[0]


def _range_op(sh, cls, file_name, window, columns) -> Op:
    return Op(
        cls=cls,
        call=lambda: sh.range_query(file_name, window),
        canon=_canon_answer,
        expect=lambda: canon_records(columns.in_window(window)),
    )


# ----------------------------------------------------------------------
# index_build
# ----------------------------------------------------------------------
def index_build(seed: int, scale: float, tmp: Path) -> Workload:
    del tmp
    sizes = _sizes("index_build", scale)
    points = generate_points(sizes["points"], "gaussian", seed=seed)
    rects = generate_rectangles(sizes["rects"], "uniform", seed=seed + 1)
    sh = SpatialHadoop(block_capacity=sizes["block_capacity"])
    sh.load("pts", points)
    sh.load("rects", rects)
    inputs = {"pts": points, "rects": rects}

    def build(source: str, technique: str, cls: str) -> Op:
        out = f"{source}_{technique}"
        return Op(
            cls=cls,
            call=lambda: sh.index(source, out, technique=technique),
            canon=_canon_file(sh, out),
            expect=lambda: sorted(set(record_keys(inputs[source]))),
            reset=_drop(sh, out),
        )

    ops = [build("pts", t, f"index_{t}") for t in spec.TECHNIQUES]
    # Rectangles take the replication path of the disjoint techniques. An
    # odd op count keeps the median op (op_p50_ms) in the middle of one
    # op's samples, not on the boundary between two ops'.
    ops += [build("rects", t, f"index_rects_{t}")
            for t in ("grid", "str+", "quadtree", "str")]
    return Workload("index_build", sizes, ops)


# ----------------------------------------------------------------------
# query_mix
# ----------------------------------------------------------------------
def query_mix(seed: int, scale: float, tmp: Path) -> Workload:
    del tmp
    sizes = _sizes("query_mix", scale)
    rng = random.Random(seed)
    points = generate_points(sizes["points"], "gaussian", seed=seed)
    rects = generate_rectangles(sizes["rects"], "uniform", seed=seed + 1)
    sh = SpatialHadoop(block_capacity=sizes["block_capacity"])
    sh.load("pts", points)
    sh.index("pts", "pts_str", technique="str")
    sh.load("rects", rects)
    sh.index("rects", "rects_grid", technique="grid")
    pcols = oracles.PointColumns(points)
    rcols = oracles.RectColumns(rects)
    n = len(points)

    def windows(count: int, share: float, columns=pcols) -> List[Rectangle]:
        total = len(columns.records)
        return [
            columns.window_holding(rng.randrange(total),
                                   max(1, round(share * total)))
            for _ in range(count)
        ]

    ops: List[Op] = []
    ops += [_range_op(sh, "range_tiny", "pts_str", w, pcols)
            for w in windows(90, 0.0001)]
    for k in (1, 10, 100, 1000):
        for _ in range(12):
            centre = points[rng.randrange(n)]
            q = Point(centre.x + rng.uniform(-50, 50),
                      centre.y + rng.uniform(-50, 50))
            kk = min(k, n)
            ops.append(Op(
                cls="knn",
                call=lambda q=q, kk=kk: sh.knn("pts_str", q, kk),
                canon=_canon_knn,
                expect=lambda q=q, kk=kk: canon_records(
                    pcols.nearest(q.x, q.y, kk)),
            ))
    for w in windows(30, 0.01):
        ops.append(Op(
            cls="count",
            call=lambda w=w: sh.range_count("pts_str", w),
            canon=_answer,
            expect=lambda w=w: len(pcols.in_window(w)),
        ))
    ops += [_range_op(sh, "range_rects", "rects_grid", w, rcols)
            for w in windows(24, 0.01, rcols)]
    one_pct = windows(12, 0.01)
    nine_pct = windows(24, 0.09)
    indexed = {
        cls: [_range_op(sh, cls, "pts_str", w, pcols) for w in wins]
        for cls, wins in (("range_1pct", one_pct), ("range_9pct", nine_pct))
    }
    ops += indexed["range_1pct"] + indexed["range_9pct"]
    # The Hadoop baseline scans the heap file for windows the index also
    # answers, which is what operations.range_index_speedup compares.
    heap = [_range_op(sh, "range_heap", "pts", w, pcols)
            for w in one_pct[:6] + nine_pct[:6]]
    ops += heap
    rng.shuffle(ops)
    # Op indices of the heap scans and of the indexed ops on their windows.
    position = {id(op): index for index, op in enumerate(ops)}
    shared = tuple(
        [position[id(op)] for op in group] for group in
        (heap, indexed["range_1pct"][:6] + indexed["range_9pct"][:6]))
    return Workload("query_mix", sizes, ops, state={"shared": shared})


# ----------------------------------------------------------------------
# join_cg
# ----------------------------------------------------------------------
PIGEON_SCRIPT = """
    pois   = LOAD 'pois';
    zones  = LOAD 'A';
    idx    = INDEX pois USING str;
    win    = FILTER idx BY Overlaps(geom, MakeBox({x1!r}, {y1!r}, {x2!r}, {y2!r}));
    cafes  = FILTER win BY category == 'cafe';
    near   = KNN idx POINT({px!r}, {py!r}) K 10;
    pairs  = SJOIN cafes, zones;
    STORE pairs INTO 'pigeon_pairs';
    STORE near INTO 'pigeon_near';
"""


def join_cg(seed: int, scale: float, tmp: Path) -> Workload:
    del tmp
    sizes = _sizes("join_cg", scale)
    rng = random.Random(seed)
    rects_a = generate_rectangles(sizes["rects"], "uniform", seed=seed)
    rects_b = generate_rectangles(sizes["rects"], "uniform", seed=seed + 1)
    points = generate_points(sizes["points"], "gaussian", seed=seed + 2)
    knn_points = generate_points(sizes["knn_points"], "uniform", seed=seed + 3)
    polygons = generate_polygons(sizes["polygons"], "uniform", seed=seed + 4,
                                 avg_radius_fraction=0.02)
    sites = sorted(set(
        generate_points(sizes["voronoi_points"], "uniform", seed=seed + 5)))
    categories = ("cafe", "bar", "shop", "park")
    pois = [
        Feature(p, {"id": i, "category": categories[i % len(categories)]})
        for i, p in enumerate(
            generate_points(sizes["pois"], "uniform", seed=seed + 6))
    ]
    sh = SpatialHadoop(block_capacity=sizes["block_capacity"])
    for name, records in (("A", rects_a), ("B", rects_b), ("pts", points),
                          ("knn_pts", knn_points), ("polys", polygons),
                          ("sites", sites), ("pois", pois)):
        sh.load(name, records)
    for technique in ("grid", "str"):
        sh.index("A", f"A_{technique}", technique=technique)
        sh.index("B", f"B_{technique}", technique=technique)
    for name in ("pts", "knn_pts", "sites"):
        sh.index(name, f"{name}_grid", technique="grid")
    sh.index("polys", "polys_idx", technique="str+")

    # Oracles are computed once, on first use: that is the warm-up pass,
    # not the set-up that setup_s times.
    once = functools.cache
    pcols = once(lambda: oracles.PointColumns(points))
    join_pairs = once(lambda: canon_pairs(
        oracles.RectColumns(rects_a).join(oracles.RectColumns(rects_b))))

    def heap_variant(method: str, file_name: str, canon) -> Callable[[], Any]:
        return once(lambda: canon(getattr(sh, method)(file_name)))

    def canon_union(result: Any) -> List[float]:
        return sorted(round(p.area, 3) for p in result.answer)

    def canon_voronoi(result: Any) -> List[Any]:
        return sorted(
            (r.site.x, r.site.y, r.closed,
             r.polygon().area if r.closed else 0.0)
            for r in result.answer.regions)

    def same_voronoi(got: List[Any], want: List[Any]) -> bool:
        # Cocircular ties move vertices by ulps between the distributed
        # and the single-machine diagram, so areas get a tolerance.
        return len(got) == len(want) and all(
            g[:3] == w[:3] and abs(g[3] - w[3]) <= 1e-6 * max(1.0, w[3])
            for g, w in zip(got, want))

    x, y = rng.uniform(2e5, 6e5), rng.uniform(2e5, 6e5)
    window = Rectangle(x, y, x + 2.5e5, y + 2.5e5)
    probe = Point(rng.uniform(0, 1e6), rng.uniform(0, 1e6))
    script = PIGEON_SCRIPT.format(
        x1=window.x1, y1=window.y1, x2=window.x2, y2=window.y2,
        px=probe.x, py=probe.y)

    def pigeon_outputs(_result: Any = None) -> List[str]:
        return (canon_records(sh.records("pigeon_near"))
                + canon_pairs(sh.records("pigeon_pairs")))

    def direct_statements() -> Any:
        """The script's statements as direct facade calls."""
        for name in ("d_idx", "d_cafes"):
            sh.fs.delete(name)
        sh.index("pois", "d_idx", technique="str")
        hits = sh.range_query("d_idx", window).answer
        sh.load("d_cafes", [f for f in hits if f["category"] == "cafe"])
        near = [r for _d, r in sh.knn("d_idx", probe, 10).answer]
        pairs = sh.spatial_join("d_cafes", "A").answer
        return near, pairs

    def pigeon_expect() -> List[str]:
        near, pairs = direct_statements()
        return canon_records(near) + canon_pairs(pairs)

    def reset_pigeon() -> None:
        for name in ("pigeon_pairs", "pigeon_near"):
            sh.fs.delete(name)

    ops = [
        Op("join_dj_grid", lambda: sh.spatial_join("A_grid", "B_grid"),
           _canon_pairs, join_pairs),
        Op("join_dj_str", lambda: sh.spatial_join("A_str", "B_str"),
           _canon_pairs, join_pairs),
        Op("join_sjmr", lambda: sh.spatial_join("A", "B"),
           _canon_pairs, join_pairs),
        Op("knn_join", lambda: sh.knn_join("knn_pts_grid", "pts_grid", 3),
           lambda r: sorted(
               (left.x, left.y, canon_records(s for _d, s in found))
               for left, found in r.answer),
           once(lambda: sorted(
               (left.x, left.y, canon_records(found))
               for left, found in oracles.knn_join(
                   oracles.PointColumns(knn_points), pcols(), 3)))),
        Op("closest_pair", lambda: sh.closest_pair("pts_grid"),
           _pair_distance_sq,
           once(lambda: [repr(oracles.closest_pair_distance_sq(pcols()))]),
           same=_same_distance),
        Op("farthest_pair", lambda: sh.farthest_pair("pts_grid"),
           _pair_distance_sq,
           heap_variant("farthest_pair", "pts", _pair_distance_sq),
           same=_same_distance),
        Op("skyline", lambda: sh.skyline("pts_grid"), _canon_answer,
           heap_variant("skyline", "pts", _canon_answer)),
        Op("convex_hull", lambda: sh.convex_hull("pts_grid"), _canon_answer,
           heap_variant("convex_hull", "pts", _canon_answer)),
        Op("union", lambda: sh.union("polys_idx"), canon_union,
           heap_variant("union", "polys", canon_union)),
        Op("voronoi", lambda: sh.voronoi("sites_grid"), canon_voronoi,
           once(lambda: canon_voronoi(
               types.SimpleNamespace(answer=voronoi(sites)))),
           same=same_voronoi),
        Op("pigeon", lambda: run_script(sh, script), pigeon_outputs,
           once(pigeon_expect), reset=reset_pigeon),
    ]
    return Workload("join_cg", sizes, ops,
                    state={"direct_statements": direct_statements})


# ----------------------------------------------------------------------
# serve_zipf
# ----------------------------------------------------------------------
ZIPF_EXPONENT = 1.1
POOL_SIZE = 60
REQUESTS = 400
SJOIN_RANKS = {20: "sjoin oidx oidx", 40: "sjoin oidx live"}
TENANTS = {"a": 2.0, "b": 1.0, "c": 1.0}


def _text(op: str, file_name: str, window: Rectangle) -> str:
    return (f"{op} {file_name} {window.x1!r},{window.y1!r},"
            f"{window.x2!r},{window.y2!r}")


def serve_zipf(seed: int, scale: float, tmp: Path) -> Workload:
    del tmp
    sizes = _sizes("serve_zipf", scale)
    rng = random.Random(seed)
    points = generate_points(sizes["points"], "gaussian", seed=seed)
    rects = generate_rectangles(sizes["rects"], "uniform", seed=seed + 1)
    live = {
        version: generate_points(sizes["live_points"], "gaussian",
                                 seed=seed + 2 + version)
        for version in (0, 1)
    }
    sh = SpatialHadoop(block_capacity=sizes["block_capacity"])
    sh.load("pts", points)
    sh.index("pts", "idx", technique="str")
    sh.load("rects", rects)
    sh.index("rects", "oidx", technique="grid")

    def write_live(version: int) -> Any:
        sh.fs.delete("live_raw")
        sh.load("live_raw", live[version])
        return sh.index("live_raw", "live", technique="str")

    write_live(0)
    columns = {"idx": oracles.PointColumns(points),
               "live": oracles.PointColumns(live[0])}

    # The pool of distinct requests, most popular first. What sits at
    # each rank is fixed (a quarter target the file that is rewritten
    # mid-pass, two are joins) and only the windows come from the seed,
    # so every seed has the same mix of cheap and dear misses.
    pool: List[str] = []
    for rank in range(POOL_SIZE):
        if rank in SJOIN_RANKS:
            pool.append(SJOIN_RANKS[rank])
            continue
        file_name = "live" if rank % 4 == 3 else "idx"
        cols = columns[file_name]
        total = len(cols.records)
        centre = rng.randrange(total)
        kind = ("range", "count", "knn", "range")[(rank // 4) % 4]
        if kind == "knn":
            p = cols.records[centre]
            pool.append(f"knn {file_name} {p.x!r},{p.y!r} 10")
        else:
            share = 0.0001 if kind == "range" and rank % 8 < 4 else 0.01
            window = cols.window_holding(centre, max(1, round(share * total)))
            pool.append(_text(kind, file_name, window))
    # Zipf frequencies as fixed counts, split evenly around the write and
    # shuffled within each half: the hit ratio is the same for every seed.
    norm = sum((rank + 1) ** -ZIPF_EXPONENT for rank in range(POOL_SIZE))
    halves: List[List[str]] = [[], []]
    for rank, text in enumerate(pool):
        count = max(1, round(REQUESTS * (rank + 1) ** -ZIPF_EXPONENT / norm))
        halves[0] += [text] * (count - count // 2)
        halves[1] += [text] * (count // 2)
    tenants = list(TENANTS)
    requests = []
    for half in halves:
        rng.shuffle(half)
        requests.append([
            (rng.choices(tenants, weights=list(TENANTS.values()))[0], text)
            for text in half
        ])
    quotas = {
        name: TenantQuota(weight=weight, max_queue=2 * REQUESTS)
        for name, weight in TENANTS.items()
    }
    state: Dict[str, Any] = {}

    def begin_pass() -> None:
        write_live(0)
        state["svc"] = QueryService(sh, quotas=quotas)

    def canon_response(response: Any) -> List[str]:
        if response.outcome != "served":
            return [f"outcome={response.outcome}"]
        answer = response.result.answer
        if isinstance(answer, int):
            return [repr(answer)]
        if response.query.startswith("knn"):
            return canon_records(r for _d, r in answer)
        if response.query.startswith("sjoin"):
            return canon_pairs(answer)
        return canon_records(answer)

    expected: Dict[Any, List[str]] = {}

    def direct(text: str, version: int) -> Callable[[], List[str]]:
        """The same query as a direct facade call, once per file content.

        Asked for right after the request it checks, so the system holds
        the content version the request saw.
        """
        def run() -> List[str]:
            if (text, version) not in expected:
                expected[text, version] = canon_response(
                    types.SimpleNamespace(
                        outcome="served", query=text,
                        result=state["execute"](text)))
            return expected[text, version]
        return run

    ops: List[Op] = []
    texts: List[Optional[str]] = []
    for version, half in enumerate(requests):
        if version == 1:
            texts.append(None)
            ops.append(Op(
                cls="write",
                call=lambda: write_live(1),
                canon=_canon_file(sh, "live"),
                expect=lambda: sorted(set(record_keys(live[1]))),
            ))
        for tenant, text in half:
            texts.append(text)
            ops.append(Op(
                cls="request",
                call=lambda tenant=tenant, text=text: state["svc"].query(
                    tenant, text),
                canon=canon_response,
                expect=direct(text, version),
            ))
    state["texts"] = texts
    state["execute"] = lambda text: explain.execute_query(
        sh, explain.parse_query(text))
    return Workload("serve_zipf", sizes, ops, begin_pass=begin_pass,
                    state=state)


# ----------------------------------------------------------------------
# batch_ops: pool_dispatch, armed_batch and their serial disarmed oracle
# ----------------------------------------------------------------------
def _batch(name: str, seed: int, scale: float, workers: int,
           journal: Optional[Path]) -> Workload:
    sizes = _sizes(name, scale)
    rng = random.Random(seed)
    points = generate_points(sizes["points"], "gaussian", seed=seed)
    rects_a = generate_rectangles(sizes["rects"], "uniform", seed=seed + 1)
    rects_b = generate_rectangles(sizes["rects"], "uniform", seed=seed + 2)
    sh = SpatialHadoop(block_capacity=sizes["block_capacity"],
                       workers=workers)
    sh.load("pts", points)
    sh.load("A", rects_a)
    sh.load("B", rects_b)
    sh.index("A", "A_grid", technique="grid")
    sh.index("B", "B_grid", technique="grid")
    pcols = oracles.PointColumns(points)
    n = len(points)

    ops = [
        Op("index_str", lambda: sh.index("pts", "pts_str", technique="str"),
           _canon_file(sh, "pts_str"), lambda: None, reset=_drop(sh, "pts_str")),
        Op("index_grid", lambda: sh.index("pts", "pts_grid", technique="grid"),
           _canon_file(sh, "pts_grid"), lambda: None,
           reset=_drop(sh, "pts_grid")),
        Op("join_dj", lambda: sh.spatial_join("A_grid", "B_grid"),
           _canon_pairs, lambda: None),
        Op("join_sjmr", lambda: sh.spatial_join("A", "B"),
           _canon_pairs, lambda: None),
        Op("closest_pair", lambda: sh.closest_pair("pts_grid"),
           _pair_distance_sq, lambda: None, same=_same_distance),
    ]
    # The small jobs are two ops, not fifty: their cost is pool wake-ups
    # and journal writes, which vary by 2x from run to run, and as single
    # ops they would be the median op (op_p50_ms). wall_s carries them
    # either way. 30 ranges, not the issue's 20, put the range burst clear
    # of closest_pair under the pool, so the median op does not flip
    # between the two from seed to seed.
    windows = [
        pcols.window_holding(rng.randrange(n), max(1, round(0.01 * n)))
        for _ in range(30)
    ]
    probes = [points[rng.randrange(n)] for _ in range(20)]
    ops.append(Op(
        "range_burst",
        lambda: [sh.range_query("pts_str", w) for w in windows],
        lambda results: [_canon_answer(r) for r in results], lambda: None))
    ops.append(Op(
        "knn_burst",
        lambda: [sh.knn("pts_str", p, 10) for p in probes],
        lambda results: [_canon_knn(r) for r in results], lambda: None))
    state: Dict[str, Any] = {}
    begin_pass: Callable[[], None] = lambda: None
    if journal is not None:
        def begin_pass() -> None:
            shutil.rmtree(journal, ignore_errors=True)
            sh.disable_tracing()
            sh.enable_tracing()
            sh.eventlog("info").clear()
            sh.enable_profiling()
            sh.telemetry().clear()
            state["checkpoint"] = sh.enable_checkpoints(journal)

    def end_pass() -> List[str]:
        # Untimed, and it leaves seven ops: an odd count keeps op_p50_ms in
        # the middle of one op's samples. The next pass pays pool start-up.
        sh.runner.close()
        leaked = harness.leaked_shm_segments()
        return [f"{name}: leaked shm segments {leaked}"] if leaked else []

    return Workload(name, sizes, ops, begin_pass=begin_pass,
                    end_pass=end_pass, close=sh.runner.close, state=state)


def _with_serial_oracle(workload: Workload, seed: int, scale: float) -> Workload:
    """Give every op the serial disarmed run of the same list as oracle.

    The reference system is built on first use, which is the warm-up
    pass: it is an oracle, not part of the set-up that ``setup_s`` times.
    """
    expected: List[Any] = []

    def expect(index: int) -> Callable[[], Any]:
        def get() -> Any:
            if not expected:
                reference = _batch(workload.name, seed, scale, workers=1,
                                   journal=None)
                workload.state["reference"] = reference
                for op in reference.ops:
                    if op.reset is not None:
                        op.reset()
                    expected.append(op.canon(op.call()))
            return expected[index]
        return get

    for index, op in enumerate(workload.ops):
        op.expect = expect(index)
    return workload


def pool_dispatch(seed: int, scale: float, tmp: Path) -> Workload:
    del tmp
    return _with_serial_oracle(
        _batch("pool_dispatch", seed, scale, workers=2, journal=None),
        seed, scale)


def armed_batch(seed: int, scale: float, tmp: Path) -> Workload:
    journal = Path(tempfile.mkdtemp(prefix="journal-", dir=tmp))
    return _with_serial_oracle(
        _batch("armed_batch", seed, scale, workers=1, journal=journal),
        seed, scale)


BUILDERS: Dict[str, Builder] = {
    "index_build": index_build,
    "query_mix": query_mix,
    "join_cg": join_cg,
    "serve_zipf": serve_zipf,
    "pool_dispatch": pool_dispatch,
    "armed_batch": armed_batch,
}
