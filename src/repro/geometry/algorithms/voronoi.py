"""Voronoi diagram as the dual of the Delaunay triangulation.

Each site's Voronoi region is bounded by the circumcenters of its incident
Delaunay triangles. Interior sites (whose incident triangles wrap all the
way around) have *closed* regions; sites on the triangulation's hull have
unbounded regions, which this module reports with ``closed=False`` and no
vertex ring (the MapReduce operation never needs their explicit shape —
unbounded regions are never *safe*).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.geometry.algorithms.delaunay import Triangulation, delaunay
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rectangle import Rectangle


@dataclass(frozen=True)
class VoronoiRegion:
    """One site's Voronoi region."""

    site: Point
    closed: bool
    #: CCW circumcenter ring for closed regions; None for unbounded ones.
    vertices: Optional[tuple] = None
    #: Radii of the *dangerous zone*: for each vertex, the distance from
    #: that Voronoi vertex to the site (== its circumcircle radius).
    radii: Optional[tuple] = None

    def polygon(self) -> Polygon:
        if not self.closed or self.vertices is None:
            raise ValueError("unbounded Voronoi region has no polygon")
        return Polygon(list(self.vertices))

    def dangerous_zone_inside(self, rect: Rectangle) -> bool:
        """Corollary 1's safety test: every vertex circle within ``rect``.

        The dangerous zone is the union of circles centred at the region's
        vertices passing through the site; the region is *safe* (final
        under any future merge) when the zone lies inside the partition.
        """
        if not self.closed or self.vertices is None:
            return False
        for v, r in zip(self.vertices, self.radii):
            if (
                v.x - r < rect.x1
                or v.x + r > rect.x2
                or v.y - r < rect.y1
                or v.y + r > rect.y2
            ):
                return False
        return True


@dataclass
class VoronoiDiagram:
    """Voronoi regions per site, with the underlying triangulation."""

    sites: List[Point]
    regions: List[VoronoiRegion]
    triangulation: Triangulation

    def region_of(self, site_index: int) -> VoronoiRegion:
        return self.regions[site_index]


def voronoi(points: Sequence[Point]) -> VoronoiDiagram:
    """Voronoi diagram of distinct sites.

    Degenerate inputs (fewer than 3 sites, collinear sites) yield a diagram
    where every region is unbounded — which is also the correct answer.
    """
    tri = delaunay(points)
    regions = voronoi_regions(tri, range(len(tri.points)))
    return VoronoiDiagram(sites=tri.points, regions=regions, triangulation=tri)


def voronoi_regions(tri: Triangulation, sites: Iterable[int]) -> List[VoronoiRegion]:
    """The regions of the given site rows of ``tri``, in that order.

    A region is closed when the site is off the hull — its triangles wrap
    all the way around it — and every one of its triangles has a
    circumcentre; those centres, ordered CCW around the site, are its
    vertices. Each triangle's centre was computed once, by the
    triangulation.
    """
    pts, fans, centers, hull = tri.points, tri.fans, tri.centers, tri.hull
    regions: List[VoronoiRegion] = []
    for i in sites:
        site = pts[i]
        ring = [centers[t] for t in fans[i]]
        if not ring or i in hull or any(c is None for c in ring):
            regions.append(VoronoiRegion(site=site, closed=False))
            continue
        ring.sort(key=lambda c: math.atan2(c.y - site.y, c.x - site.x))
        radii = tuple(c.distance(site) for c in ring)
        regions.append(
            VoronoiRegion(site=site, closed=True, vertices=tuple(ring), radii=radii)
        )
    return regions


def safe_sites(tri: Triangulation, rect: Rectangle) -> List[int]:
    """Site rows whose regions no site outside ``rect`` can change.

    Corollary 1 (see :meth:`VoronoiRegion.dangerous_zone_inside`) on the
    cached centres: a site is safe when its region is closed and, for each
    of its triangles, the circle about the centre through the site lies
    within ``rect`` — the same radius the region's ``radii`` hold.
    """
    pts, centers = tri.points, tri.centers
    out = []
    for i, fan in enumerate(tri.fans):
        if not fan or i in tri.hull:
            continue
        site = pts[i]
        for t in fan:
            c = centers[t]
            if c is None:
                break
            r = c.distance(site)
            if (
                c.x - r < rect.x1 or c.x + r > rect.x2
                or c.y - r < rect.y1 or c.y + r > rect.y2
            ):
                break
        else:
            out.append(i)
    return out
