"""Single-machine baselines ("traditional algorithms") with timing.

These are the left-most bars of every figure in the evaluation: the plain
in-memory algorithm running on one machine over the full dataset. Each
helper returns an :class:`~repro.core.result.OperationResult` whose
``extra_seconds`` is the measured wall-clock of the computation, so the
benchmarks can put baselines and MapReduce variants in the same table.
"""

from __future__ import annotations

import time
from typing import Any, Callable, List

from repro.core.result import OperationResult
from repro.geometry import Point, Rectangle
from repro.geometry.algorithms.closest_pair import closest_pair
from repro.geometry.algorithms.convex_hull import convex_hull
from repro.geometry.algorithms.farthest_pair import farthest_pair
from repro.geometry.algorithms.skyline import skyline
from repro.geometry.algorithms.union import polygon_union
from repro.index.partitioners.base import shape_mbr


def _timed(fn: Callable[[], Any]) -> OperationResult:
    started = time.perf_counter()
    answer = fn()
    elapsed = time.perf_counter() - started
    return OperationResult(
        answer=answer, jobs=[], extra_seconds=elapsed, system="single-machine"
    )


def range_query(records: List[Any], query: Rectangle) -> OperationResult:
    """Linear scan range query."""
    return _timed(
        lambda: [r for r in records if query.intersects(shape_mbr(r))]
    )


def knn(records: List[Any], query: Point, k: int) -> OperationResult:
    """Sort-based kNN scan, ranked by ``(squared distance, index)``."""

    def compute():
        scored = sorted(
            (shape_mbr(r).min_distance_sq_point(query), i)
            for i, r in enumerate(records)
        )
        return [
            (shape_mbr(records[i]).min_distance_point(query), records[i])
            for _dsq, i in scored[:k]
        ]

    return _timed(compute)


def spatial_join(left: List[Any], right: List[Any]) -> OperationResult:
    """Plane-sweep join of two in-memory datasets."""
    from repro.operations.spatial_join import plane_sweep_join

    return _timed(lambda: plane_sweep_join(left, right))


def skyline_op(points: List[Point]) -> OperationResult:
    return _timed(lambda: skyline(points))


def convex_hull_op(points: List[Point]) -> OperationResult:
    return _timed(lambda: convex_hull(points))


def closest_pair_op(points: List[Point]) -> OperationResult:
    return _timed(lambda: closest_pair(points))


def farthest_pair_op(points: List[Point]) -> OperationResult:
    return _timed(lambda: farthest_pair(points))


def union_op(polygons: List[Any]) -> OperationResult:
    return _timed(lambda: polygon_union(polygons))


def voronoi_op(points: List[Point]) -> OperationResult:
    from repro.geometry.algorithms.voronoi import voronoi

    return _timed(lambda: voronoi(points))
