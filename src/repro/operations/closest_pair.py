"""Closest pair in SpatialHadoop.

The algorithm needs a *disjoint* index on points: each partition computes
its local closest pair at distance delta, keeps its two endpoints plus every
point within delta of the partition boundary (the candidate buffer), and
prunes everything else. One reducer runs the closest-pair algorithm over
the survivors. Disjointness is what makes the pruning safe: a pruned point
is more than delta away from anything outside its cell, and something
within delta inside its cell survives with it.

The papers argue a Hadoop variant is impractical (random partitioning makes
local pruning unsound); the single-machine baseline lives in
:mod:`repro.operations.single_machine`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of, spatial_splitter
from repro.geometry import Point, vectorized
from repro.observe.plan import PlanNode
from repro.operations.common import plan_indexed_scan, point_columns
from repro.mapreduce import Job, JobRunner


def _closest_pair_map(cell, block, ctx):
    """Local closest pair + candidate buffer (module-level: picklable).

    Ships the coordinates of the surviving rows as two columns.
    """
    xs, ys = point_columns(block)
    pair = vectorized.closest_pair_rows(xs, ys)
    if pair is None:
        # Zero or one point: nothing can be pruned safely.
        keep = range(len(xs))
    else:
        i, j = pair
        delta = math.hypot(xs[i] - xs[j], ys[i] - ys[j])
        near = vectorized.points_near_boundary(xs, ys, cell, delta)
        keep = sorted({i, j}.union(near))
    ctx.emit(1, (xs[keep], ys[keep]))


def _closest_pair_reduce(_key, columns, ctx):
    """Closest pair of the survivors (module-level: picklable)."""
    xs = np.concatenate([c[0] for c in columns])
    ys = np.concatenate([c[1] for c in columns])
    pair = vectorized.closest_pair_rows(xs, ys)
    if pair is not None:
        ctx.emit(1, tuple(Point(float(xs[i]), float(ys[i])) for i in pair))


def closest_pair_spatial(runner: JobRunner, file_name: str) -> OperationResult:
    """Closest pair over a disjointly indexed point file."""
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    if not gindex.disjoint:
        raise ValueError("the closest-pair pruning step needs a disjoint index")

    job = Job(
        input_file=file_name,
        map_fn=_closest_pair_map,
        reduce_fn=_closest_pair_reduce,
        splitter=spatial_splitter(),
        name=f"closest-pair({file_name})",
    )
    result = runner.run(job)
    runner.round_boundary("closest-pair", 1)
    answer = result.output[0] if result.output else None
    return OperationResult(answer=answer, jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def plan_closest_pair(runner: JobRunner, file_name: str) -> PlanNode:
    """EXPLAIN plan for the closest-pair operation (disjoint index only)."""
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    selected = list(gindex)
    plan = plan_indexed_scan(
        runner,
        f"ClosestPair({file_name})",
        f"job:closest-pair({file_name})",
        gindex,
        selected,
        map_desc="local closest pair + boundary buffer",
        reduce_desc="closest pair of survivors",
        shuffle_records=len(selected),  # one pair of columns per block
    )
    if not gindex.disjoint:
        plan.detail["note"] = "pruning requires a disjoint index"
    return plan
