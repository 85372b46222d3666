"""The traced run: per-layer metrics of one workload.

``--trace 1`` runs the named workload with the span wrappers of
``spans.py`` installed, alternating traced and untraced passes (their
ratio is the tracing overhead). So that every traced run reports every
per-layer metric, it then tours the other workloads at a reduced scale
(one warm-up and one traced pass each) for the rows they own, and runs
the fixed-size layer probes of ``probes.py``.
"""

from __future__ import annotations

import argparse
import statistics
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

import harness
import probes
import spans
import spec
import workloads

#: Scale of the other workloads' tour, relative to the run's own scale.
TOUR_SCALE = 0.25


class Traced:
    """One workload's traced passes and what they recorded."""

    def __init__(self, workload: harness.Workload):
        self.workload = workload
        self.warm: Optional[harness.PassResult] = None
        self.traced: List[harness.PassResult] = []
        self.untraced: List[harness.PassResult] = []
        self.reference: List[harness.PassResult] = []
        self.extra: Dict[str, List[float]] = {}
        self.spans: List[Dict[str, Any]] = []
        self.failures: List[str] = []
        self.attempted = 0

    def roots(self, cls: str = "") -> List[Dict[str, Any]]:
        """The root spans of the ops (of one class, if given)."""
        return [s for s in self.spans if s["name"].startswith("op:")
                and (not cls or s["name"] == f"op:{cls}")]

    def seconds(self, span: Dict[str, Any]) -> float:
        """A span's host-normalised duration."""
        factor = self.traced[span["pass"]].host_factor
        return (span["end"] - span["start"]) / factor

    def median_s(self, cls: str) -> float:
        return statistics.median(self.seconds(s) for s in self.roots(cls))


def _describe(result: Any) -> Dict[str, Any]:
    """What the reducer needs to know about an op's result."""
    attrs: Dict[str, Any] = {}
    for name in ("cache_hit", "replication"):
        value = getattr(result, name, None)
        if value is not None:
            attrs[name] = value
    jobs = harness.jobs_of(result)
    if jobs:
        attrs["map_input_records"] = sum(
            j.counters.get("MAP_INPUT_RECORDS") for j in jobs)
        attrs["output_records"] = sum(
            j.counters.get("OUTPUT_RECORDS") for j in jobs)
    return attrs


def _timed_extra(run: Traced, recorder: spans.Recorder, name: str,
                 fn: Callable[[], Any]) -> None:
    """Time a comparison call under the tracer, like the op it is set against."""
    recorder.enabled = True
    try:
        _, raw, factor = harness.timed(spans.traced_op(
            recorder, -1, f"extra:{name}", fn, lambda _result: {}))
    finally:
        recorder.enabled = False
    run.extra.setdefault(name, []).append(raw / factor)


def _direct_statements(run: Traced, recorder: spans.Recorder) -> None:
    """pigeon.overhead_ratio divides by the same statements, direct."""
    _timed_extra(run, recorder, "direct_statements",
                 run.workload.state["direct_statements"])


def _direct_queries(run: Traced, recorder: spans.Recorder) -> None:
    """serve.overhead_ratio divides by the missed queries, direct."""
    state = run.workload.state
    last = len(run.traced) - 1
    missed = [s for s in recorder.spans if s.get("cache_hit") is False
              and s["workload"] == run.workload.name and s["pass"] == last]
    for span in missed[:10]:
        text = state["texts"][span["op"]]
        _timed_extra(run, recorder, "direct_query",
                     lambda: state["execute"](text))
        run.extra.setdefault("miss_over_direct", []).append(
            run.seconds(span) / run.extra["direct_query"][-1])


#: What a workload's ratios divide by, measured right after each pass.
AFTER_TRACED_PASS: Dict[str, Callable[[Traced, spans.Recorder], None]] = {
    "join_cg": _direct_statements,
    "serve_zipf": _direct_queries,
}


def trace_workload(name: str, seed: int, scale: float, seconds: float,
                   recorder: spans.Recorder, tmp: Path) -> Traced:
    """Warm-up, then traced and untraced passes in turn for ``seconds``."""
    workload = workloads.BUILDERS[name](seed, scale, tmp)
    run = Traced(workload)
    plain = [op.call for op in workload.ops]
    wrapped = [
        spans.traced_op(recorder, index, f"op:{op.cls}", op.call, _describe)
        for index, op in enumerate(workload.ops)
    ]
    digests: List[Optional[str]] = [None] * len(workload.ops)

    def one_pass(traced: bool, verify: bool = False) -> harness.PassResult:
        for op, call in zip(workload.ops, wrapped if traced else plain):
            op.call = call
        recorder.enabled = traced
        try:
            result = harness.run_pass(workload, digests, verify=verify)
        finally:
            recorder.enabled = False
        run.failures.extend(result.failures)
        run.attempted += len(workload.ops)
        return result

    run.warm = one_pass(traced=False, verify=True)
    first_span = len(recorder.spans)
    # The serial disarmed twin of a batch workload, built by the warm-up.
    reference = workload.state.get("reference")
    elapsed = 0.0
    while not run.traced or elapsed < seconds:
        recorder.context = {"workload": name, "pass": len(run.traced)}
        run.traced.append(one_pass(traced=True))
        elapsed += run.traced[-1].wall_raw_s
        if name in AFTER_TRACED_PASS:
            AFTER_TRACED_PASS[name](run, recorder)
        if seconds > 0:
            run.untraced.append(one_pass(traced=False))
            elapsed += run.untraced[-1].wall_raw_s
        if reference is not None:
            run.reference.append(harness.run_pass(
                reference, [None] * len(reference.ops)))
            elapsed += run.reference[-1].wall_raw_s
    run.spans = recorder.spans[first_span:]
    workload.close()
    if reference is not None:
        reference.close()
    return run


# ----------------------------------------------------------------------
# Rows read from one workload's spans and counters
# ----------------------------------------------------------------------
def generic(run: Traced) -> Dict[str, float]:
    counts = run.warm.counts
    out = {f"mapreduce.{axis}": float(counts[axis])
           for axis in spec.GOODRICH_AXES}
    out["mapreduce.cluster.makespan_s"] = statistics.median(
        p.counts["makespan_s"] for p in run.traced)
    out["mapreduce.shm.segments_leaked"] = float(
        len(harness.leaked_shm_segments()))
    # Coverage: the share of each op's wall that lies inside spans of the
    # system's own layers, as opposed to the harness's root span alone.
    own = spans.self_times(run.spans)
    root_total = sum(s["end"] - s["start"] for s in run.roots())
    uncovered = sum(own[s["id"]] for s in run.roots())
    out["trace.coverage"] = 1.0 - uncovered / root_total
    if out["trace.coverage"] < 0.95:
        run.failures.append(
            f"{run.workload.name}: trace.coverage "
            f"{out['trace.coverage']:.3f} is below 0.95")
    untraced = run.untraced or [run.warm]
    out["trace.overhead_ratio"] = (
        statistics.median(p.wall_s for p in run.traced)
        / statistics.median(p.wall_s for p in untraced))
    out["host.spin_s"] = harness.SPIN_REF_S * statistics.median(
        p.host_factor for p in run.traced)
    return out


def index_build_rows(run: Traced) -> Dict[str, float]:
    out = {f"index.build_s.{spec.metric_label(t)}": run.median_s(f"index_{t}")
           for t in spec.TECHNIQUES}
    from repro.index import PARTITIONERS

    # Techniques whose cells tile the space, so extended shapes replicate.
    out["index.replication_factor"] = statistics.fmean(
        s["replication"] for s in run.roots() if s["pass"] == 0
        and PARTITIONERS[s["name"].rsplit("_", 1)[-1]].disjoint)
    return out


def query_mix_rows(run: Traced) -> Dict[str, float]:
    out = {f"operations.{cls}_ms": 1e3 * run.median_s(cls)
           for cls in spec.QUERY_CLASSES}
    first = [s for s in run.roots() if s["pass"] == 0]
    by_op = {s["op"]: s for s in first}
    heap, indexed = run.workload.state["shared"]
    out["operations.range_index_speedup"] = (
        sum(run.seconds(by_op[i]) for i in heap)
        / sum(run.seconds(by_op[i]) for i in indexed))
    counts = run.warm.counts
    out["core.pruning_ratio"] = counts["blocks_pruned"] / counts["blocks_total"]
    ranges = [s for s in first if s["name"].startswith("op:range")]
    out["core.rows_examined_per_result"] = (
        sum(s["map_input_records"] for s in ranges)
        / sum(s["output_records"] for s in ranges))
    return out


def join_cg_rows(run: Traced) -> Dict[str, float]:
    out = {f"operations.{op}_s": run.median_s(op) for op in spec.JOIN_CG_OPS}
    out["pigeon.script_s"] = run.median_s("pigeon")
    out["pigeon.overhead_ratio"] = (
        out["pigeon.script_s"]
        / statistics.median(run.extra["direct_statements"]))
    return out


def serve_zipf_rows(run: Traced) -> Dict[str, float]:
    requests = run.roots("request")
    hits = [run.seconds(s) for s in requests if s["cache_hit"]]
    misses = [run.seconds(s) for s in requests if not s["cache_hit"]]
    return {
        "serve.hit_ms": 1e3 * statistics.median(hits),
        "serve.miss_ms": 1e3 * statistics.median(misses),
        "serve.cache_hit_ratio": len(hits) / len(requests),
        "serve.overhead_ratio": statistics.median(
            run.extra["miss_over_direct"]),
    }


def _ratio_to_reference(run: Traced) -> float:
    """Untraced wall over the serial disarmed twin's (the tour has only
    its traced pass to offer)."""
    return (statistics.median(p.wall_s for p in run.untraced or run.traced)
            / statistics.median(p.wall_s for p in run.reference))


def pool_dispatch_rows(run: Traced) -> Dict[str, float]:
    return {
        "mapreduce.executor.pool_vs_serial_ratio": _ratio_to_reference(run),
        "mapreduce.executor.cpu_s": statistics.median(
            p.cpu_s for p in run.traced),
    }


def armed_batch_rows(run: Traced) -> Dict[str, float]:
    manager = run.workload.state["checkpoint"]
    waves = max(1, manager.waves_committed)
    journal = sum(f.stat().st_size
                  for f in Path(manager.directory).glob("wave-*"))
    return {
        "observe.armed_overhead_ratio": _ratio_to_reference(run),
        "mapreduce.checkpoint.commit_ms_per_wave":
            1e3 * manager.overhead_s / waves,
        "mapreduce.checkpoint.bytes_per_wave": journal / waves,
    }


OWNED_ROWS: Dict[str, Callable[[Traced], Dict[str, float]]] = {
    "index_build": index_build_rows,
    "query_mix": query_mix_rows,
    "join_cg": join_cg_rows,
    "serve_zipf": serve_zipf_rows,
    "pool_dispatch": pool_dispatch_rows,
    "armed_batch": armed_batch_rows,
}


def measure_traced(args: argparse.Namespace, tmp: Path,
                   out_dir: Path) -> Dict[str, Any]:
    recorder = spans.Recorder()
    uninstall, missing = spans.install(recorder)
    metrics: Dict[str, float] = {}
    failures: List[str] = []
    attempted = 0
    clock = time.perf_counter
    marks = [clock()]
    try:
        # Half the budget: the tour and the probes measure too.
        own = trace_workload(args.workload, args.seed, args.scale,
                             args.seconds / 2, recorder, tmp)
        metrics.update(generic(own))
        marks.append(clock())
        runs = {args.workload: own}
        for name in spec.WORKLOADS:
            if name != args.workload:
                runs[name] = trace_workload(
                    name, args.seed, args.scale * TOUR_SCALE, 0.0,
                    recorder, tmp)
        for name, run in runs.items():
            metrics.update(OWNED_ROWS[name](run))
            failures.extend(run.failures)
            attempted += run.attempted
        marks.append(clock())
        metrics.update(probes.run_all(args.seed, tmp))
        marks.append(clock())
    finally:
        uninstall()
        recorder.write(out_dir / f"trace_{args.workload}.jsonl")
    layer_self = spans.by_layer(own.spans)
    return {
        "workload": args.workload,
        "sizes": own.workload.sizes,
        "ops_attempted": attempted,
        "ops_failed": len(failures),
        "failures": failures[:20],
        "passes": len(own.traced),
        "metrics": {name: {"value": metrics[name]}
                    for name in spec.PER_LAYER},
        "phases_s": dict(zip(("workload", "tour", "probes"),
                             (b - a for a, b in zip(marks, marks[1:])))),
        "layer_self_s": layer_self,
        "targets_missing": missing,
        "spans": len(recorder.spans),
    }
