"""Voronoi-diagram construction in MapReduce.

The operations-layer flagship of the later SpatialHadoop work: the output
is several times larger than the input, so the merge step must not see all
of it. Each partition computes its local Voronoi diagram and applies the
*pruning rule* (Corollary 1): a closed region whose dangerous zone — the
union of circles centred at its Voronoi vertices passing through the site
— lies entirely inside the partition boundary is *safe*: no site in any
other partition can change it, so it is flushed straight to the output.

Only the non-safe sites, plus their local Voronoi neighbours (the support
set that provably determines the non-safe cells), are shipped to the
merge step, which computes one Voronoi diagram over the survivors and
emits the regions of the non-safe sites. The paper performs the merge in
vertical then horizontal rounds; this reproduction merges in one round,
which preserves the algorithm's structure (local VD -> prune safe ->
merge survivors) and its headline metric: the fraction of sites pruned
before the merge.

Requires a disjoint index on points, for the same reason as closest pair:
the safety test assumes no foreign site can appear inside the partition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List

from repro.core.result import OperationResult
from repro.core.splitter import global_index_of, spatial_splitter
from repro.geometry import Point
from repro.geometry.algorithms.delaunay import delaunay
from repro.geometry.algorithms.voronoi import (
    VoronoiRegion,
    safe_sites,
    voronoi_regions,
)
from repro.observe.plan import PlanNode
from repro.operations.common import as_points, plan_indexed_scan, point_columns
from repro.mapreduce import Job, JobRunner


@dataclass
class VoronoiResult:
    """The distributed Voronoi diagram.

    ``final_regions`` were produced (and early-flushed) by the local VD
    step; ``merged_regions`` by the merge step. Together they hold exactly
    one region per input site.
    """

    final_regions: List[VoronoiRegion] = field(default_factory=list)
    merged_regions: List[VoronoiRegion] = field(default_factory=list)

    @property
    def regions(self) -> List[VoronoiRegion]:
        return self.final_regions + self.merged_regions

    def by_site(self) -> Dict[Point, VoronoiRegion]:
        return {r.site: r for r in self.regions}

    @property
    def pruned_fraction(self) -> float:
        """Fraction of sites finalised before the merge (paper: ~99%)."""
        total = len(self.final_regions) + len(self.merged_regions)
        return len(self.final_regions) / total if total else 0.0


def _voronoi_map(cell, block, ctx):
    """Local diagram; safe regions flushed, the rest shipped as columns
    (module-level: picklable).

    One record per partition: the non-safe sites and then their local
    Delaunay neighbours (the support set that determines their regions)
    as two coordinate columns, and how many of the rows are non-safe.
    """
    xs, ys = point_columns(block)
    tri = delaunay(as_points(block.records))
    safe = safe_sites(tri, cell)
    for region in voronoi_regions(tri, safe):
        ctx.write_output(region)  # safe: final, early-flushed
    nonsafe = sorted(set(range(len(xs))).difference(safe))
    corners, fans = tri.corners, tri.fans
    support = {v for i in nonsafe for t in fans[i] for v in corners[3 * t:3 * t + 3]}
    rows = nonsafe + sorted(support.difference(nonsafe))
    if rows:
        ctx.emit(1, (len(nonsafe), xs[rows], ys[rows]))


def _voronoi_reduce(_key, parts, ctx):
    """Merge the survivors; emit the non-safe sites' regions."""
    nonsafe, survivors = set(), set()
    for count, xs, ys in parts:
        coords = list(zip(xs.tolist(), ys.tolist()))
        nonsafe.update(coords[:count])
        survivors.update(coords)
    ordered = sorted(survivors)
    tri = delaunay([Point(x, y) for x, y in ordered])
    rows = [i for i, xy in enumerate(ordered) if xy in nonsafe]
    for region in voronoi_regions(tri, rows):
        ctx.emit(1, region)


def voronoi_spatial(runner: JobRunner, file_name: str) -> OperationResult:
    """Distributed Voronoi diagram over a disjointly indexed point file."""
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    if not gindex.disjoint:
        raise ValueError("the Voronoi pruning rule needs a disjoint index")

    job = Job(
        input_file=file_name,
        map_fn=_voronoi_map,
        reduce_fn=_voronoi_reduce,
        splitter=spatial_splitter(),
        name=f"voronoi({file_name})",
    )
    result = runner.run(job)
    # The runtime appends map-flushed records first and reducer output
    # last; the reduce-output counter locates the boundary.
    answer = VoronoiResult()
    reduce_count = result.counters["REDUCE_OUTPUT_RECORDS"]
    if reduce_count:
        answer.final_regions = result.output[:-reduce_count]
        answer.merged_regions = result.output[-reduce_count:]
    else:
        answer.final_regions = list(result.output)
    return OperationResult(answer=answer, jobs=[result])


# ----------------------------------------------------------------------
# Plan hook (EXPLAIN)
# ----------------------------------------------------------------------
def plan_voronoi(runner: JobRunner, file_name: str) -> PlanNode:
    """EXPLAIN plan for the Voronoi operation.

    Non-safe sites live near partition boundaries, so the headline pruned
    fraction is estimated with the same boundary-band argument as the
    closest-pair candidate buffer: ~4*sqrt(n) sites per cell. Each
    partition ships its survivors as one record.
    """
    gindex = global_index_of(runner.fs, file_name)
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    survivors = sum(
        min(c.num_records, round(4 * math.sqrt(c.num_records)))
        for c in gindex
    )
    plan = plan_indexed_scan(
        runner,
        f"Voronoi({file_name})",
        f"job:voronoi({file_name})",
        gindex,
        list(gindex),
        map_desc="local VD, early-flush safe regions",
        reduce_desc="merge non-safe + support sites",
        shuffle_records=sum(1 for c in gindex if c.num_records),
    )
    total = gindex.total_records
    plan.estimated["pruned_fraction"] = (
        round(1.0 - survivors / total, 4) if total else 0.0
    )
    if not gindex.disjoint:
        plan.detail["note"] = "the safety test requires a disjoint index"
    return plan
