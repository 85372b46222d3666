"""Tracing from outside: spans around the calls into each layer.

The harness wraps public functions and methods of the system's packages
(the table below) so that, while a recorder is enabled, every call is a
span: name, layer, start, end, parent, plus the workload and pass it
belongs to. Nothing inside the program is edited; the wrappers are
installed for the traced run only and removed afterwards. Spans stay in
memory and are written as JSON lines when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Tuple

#: layer -> "module:attribute" or "module:Class.method". Calls per job or
#: per block only: nothing per record, or the tracer would be the load.
TARGETS: Dict[str, Tuple[str, ...]] = {
    "datagen": (
        "repro.datagen.points:generate_points",
        "repro.datagen.shapes:generate_rectangles",
        "repro.datagen.shapes:generate_polygons",
    ),
    "geometry": (
        "repro.geometry.vectorized:points_in_rect",
        "repro.geometry.vectorized:rects_intersect",
        "repro.geometry.vectorized:points_in_rect_owned",
        "repro.geometry.vectorized:rects_intersect_owned",
        "repro.geometry.vectorized:point_distance_sq",
        "repro.geometry.vectorized:rect_min_distance_sq",
        "repro.geometry.vectorized:topk_by_distance",
        "repro.geometry.algorithms.closest_pair:closest_pair",
        "repro.geometry.algorithms.convex_hull:convex_hull",
        "repro.geometry.algorithms.farthest_pair:farthest_pair",
        "repro.geometry.algorithms.skyline:skyline",
        "repro.geometry.algorithms.union:polygon_union",
        "repro.geometry.algorithms.voronoi:voronoi",
        "repro.geometry.algorithms.delaunay:delaunay",
    ),
    "index": (
        "repro.index.build:build_index",
        "repro.index.rtree:RTree.__init__",
        "repro.index.rtree:RTree.search",
        "repro.index.rtree:RTree.knn",
        "repro.index.sampler:reservoir_sample",
        "repro.index.sfilter:PresenceFilter.build",
        "repro.index.partitioners.grid:GridPartitioner.create",
        "repro.index.partitioners.str_:StrPartitioner.create",
        "repro.index.partitioners.quadtree:QuadTreePartitioner.create",
        "repro.index.partitioners.kdtree:KdTreePartitioner.create",
    ),
    "core": tuple(
        f"repro.core.system:SpatialHadoop.{method}" for method in (
            "load", "index", "range_query", "range_count", "knn",
            "spatial_join", "knn_join", "skyline", "convex_hull",
            "closest_pair", "farthest_pair", "voronoi", "union", "fsck",
            "explain", "enable_checkpoints",
        )
    ) + (
        "repro.core.reader:spatial_reader",
        "repro.core.workspace:save_workspace",
        "repro.core.workspace:load_workspace",
    ),
    "operations": tuple(
        f"repro.operations:{name}" for name in (
            "range_query_hadoop", "range_query_spatial",
            "range_count_hadoop", "range_count_spatial",
            "knn_hadoop", "knn_spatial",
            "spatial_join_distributed", "spatial_join_sjmr",
            "knn_join_hadoop", "knn_join_spatial",
            "skyline_hadoop", "skyline_spatial",
            "convex_hull_hadoop", "convex_hull_spatial",
            "closest_pair_spatial",
            "farthest_pair_hadoop", "farthest_pair_spatial",
            "union_hadoop", "union_spatial", "voronoi_spatial",
            "plan_range_query", "plan_range_count", "plan_knn",
            "plan_spatial_join",
        )
    ),
    "mapreduce": (
        "repro.mapreduce.runtime:JobRunner.run",
        "repro.mapreduce.runtime:JobRunner.close",
        "repro.mapreduce.fs:FileSystem.create_file",
        "repro.mapreduce.fs:FileSystem.create_file_from_blocks",
        "repro.mapreduce.fs:FileSystem.read_records",
        "repro.mapreduce.columnar:ColumnarPayload.from_records",
        "repro.mapreduce.columnar:ColumnarPayload.materialize",
        "repro.mapreduce.executor:SerialExecutor.map_chunks",
        "repro.mapreduce.executor:ParallelExecutor.map_chunks",
        "repro.mapreduce.shm:prepare_chunks",
        "repro.mapreduce.checkpoint:CheckpointManager.commit",
        "repro.mapreduce.checkpoint:CheckpointManager.create",
        "repro.mapreduce.checkpoint:CheckpointManager.finish",
        "repro.mapreduce.storage:StorageManager.seal_file",
        "repro.mapreduce.storage:StorageManager.verify_block",
        "repro.mapreduce.storage:run_fsck",
        "repro.mapreduce.cluster:ClusterModel.job_makespan",
    ),
    "pigeon": (
        "repro.pigeon.runner:run_script",
        "repro.pigeon.parser:parse",
    ),
    "serve": (
        "repro.serve.service:QueryService.submit",
        "repro.serve.service:QueryService.drain",
        "repro.serve.cache:ResultCache.get",
        "repro.serve.cache:ResultCache.put",
        "repro.serve.scheduler:FairScheduler.enqueue",
        "repro.serve.scheduler:FairScheduler.pick",
    ),
    "observe": (
        "repro.observe.explain:parse_query",
        "repro.observe.explain:build_plan",
        "repro.observe.explain:execute_query",
        "repro.observe.log:EventLog.emit",
        "repro.observe.telemetry:TelemetryLog.scrape",
        "repro.observe.history:JobHistory.record",
        "repro.observe.metrics:MetricsRegistry.merge_counters",
    ),
}


class Recorder:
    """In-memory span store with a call stack."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Dict[str, Any]] = []
        self.context: Dict[str, Any] = {}
        self._stack: List[int] = []

    def begin(self, name: str, layer: str) -> int:
        span_id = len(self.spans)
        self.spans.append({
            "id": span_id,
            "parent": self._stack[-1] if self._stack else None,
            "name": name, "layer": layer,
            "start": time.perf_counter(), "end": None,
            **self.context,
        })
        self._stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        self.spans[span_id]["end"] = time.perf_counter()
        self._stack.pop()

    def write(self, path: Path) -> None:
        with path.open("w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, default=str) + "\n")


def _wrap(recorder: Recorder, fn: Callable, name: str, layer: str) -> Callable:
    depth = 0  # a recursive function is one span, not one per level

    @functools.wraps(fn)
    def traced(*args: Any, **kwargs: Any) -> Any:
        nonlocal depth
        if depth or not recorder.enabled:
            return fn(*args, **kwargs)
        depth += 1
        span_id = recorder.begin(name, layer)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.end(span_id)
            depth -= 1

    return traced


def _repro_namespaces() -> Iterable[Dict[str, Any]]:
    for module_name, module in list(sys.modules.items()):
        if module is not None and module_name.split(".")[0] == "repro":
            yield vars(module)


def install(recorder: Recorder) -> Tuple[Callable[[], None], List[str]]:
    """Wrap every target; returns (uninstall, targets that do not exist).

    A later change may rename or delete an internal function. The traced
    run then simply has no span for it: the missing names are reported,
    not raised, so that the benchmark keeps running unchanged.
    """
    undo: List[Callable[[], None]] = []
    missing: List[str] = []
    for layer, targets in TARGETS.items():
        for target in targets:
            module_name, _, path = target.partition(":")
            try:
                owner: Any = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                raw = (vars(owner)[attr] if inspect.isclass(owner)
                       else getattr(owner, attr))
            except (ImportError, AttributeError, KeyError):
                missing.append(target)
                continue
            name = f"{layer}:{path}"
            if isinstance(raw, (classmethod, staticmethod)):
                traced: Any = type(raw)(
                    _wrap(recorder, raw.__func__, name, layer))
            else:
                traced = _wrap(recorder, raw, name, layer)
            if inspect.isclass(owner):
                setattr(owner, attr, traced)
                undo.append(functools.partial(setattr, owner, attr, raw))
                continue
            # A module-level function may have been imported by name into
            # other modules: swap every binding of the same object.
            for namespace in _repro_namespaces():
                for key, value in list(namespace.items()):
                    if value is raw:
                        namespace[key] = traced
                        undo.append(functools.partial(
                            namespace.__setitem__, key, raw))

    def uninstall() -> None:
        while undo:
            undo.pop()()

    return uninstall, missing


def self_times(spans: List[Dict[str, Any]]) -> Dict[int, float]:
    """Span id -> its duration minus what its child spans cover.

    Children of one parent never overlap here (one thread, one stack),
    so the covered part is the plain sum of the children's durations.
    """
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= span["end"] - span["start"]
    return own


def by_layer(spans: List[Dict[str, Any]]) -> Dict[str, float]:
    """Self time summed per layer."""
    own = self_times(spans)
    totals: Dict[str, float] = {}
    for span in spans:
        totals[span["layer"]] = totals.get(span["layer"], 0.0) + own[span["id"]]
    return totals


def traced_op(recorder: Recorder, index: int, name: str,
              call: Callable[[], Any],
              describe: Callable[[Any], Dict[str, Any]]) -> Callable[[], Any]:
    """The harness's own call under a root span (``op:<class>`` for ops).

    ``describe`` adds what the reducer needs from the result (cache hit,
    counters) to the span, after the span's end has been taken.
    """
    def run() -> Any:
        span_id = recorder.begin(name, "harness")
        attrs: Dict[str, Any] = {}
        try:
            result = call()
            attrs = describe(result)
            return result
        finally:
            recorder.end(span_id)
            recorder.spans[span_id].update(attrs, op=index)
    return run
