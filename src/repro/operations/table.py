"""The query-language operations, in one table.

Every front end that names an operation looks it up here: the one-line
query language of EXPLAIN and ``repro serve``
(:mod:`repro.observe.explain`) and the Pigeon compiler
(:mod:`repro.pigeon.runner`). An entry says how many input files the
operation reads, which :class:`~repro.observe.explain.Query` fields follow
them as arguments, the :class:`~repro.core.system.SpatialHadoop` method
that runs it and the ``plan_*`` function of this package that explains
it. Both callables take the files, then the arguments, in that order.

Methods and planners are named, not bound, so the facade and the
operations package stay free of an import of this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple


def _listed(answer: Any) -> List[Any]:
    return list(answer) if answer else []


@dataclass(frozen=True)
class Operation:
    """One query-language operation."""

    name: str
    #: Input files, named first on the query line.
    files: int
    #: Query fields after the files: ``window``, ``point`` and/or ``k``.
    args: Tuple[str, ...]
    #: SpatialHadoop method that runs it.
    method: str
    #: ``repro.operations`` function that plans it.
    planner: str
    #: Pigeon keyword of a one-relation statement that compiles to it.
    keyword: Optional[str] = None
    #: The answer as the records of a Pigeon relation.
    records: Callable[[Any], List[Any]] = _listed


OPERATIONS: Dict[str, Operation] = {op.name: op for op in (
    Operation("range", 1, ("window",), "range_query", "plan_range_query"),
    Operation("count", 1, ("window",), "range_count", "plan_range_count"),
    Operation("knn", 1, ("point", "k"), "knn", "plan_knn",
              records=lambda answer: [record for _d, record in answer]),
    Operation("sjoin", 2, (), "spatial_join", "plan_spatial_join"),
    Operation("knnjoin", 2, ("k",), "knn_join", "plan_knn_join"),
    Operation("skyline", 1, (), "skyline", "plan_skyline", "SKYLINE"),
    Operation("hull", 1, (), "convex_hull", "plan_convex_hull", "CONVEXHULL"),
    Operation("closestpair", 1, (), "closest_pair", "plan_closest_pair",
              "CLOSESTPAIR"),
    Operation("farthestpair", 1, (), "farthest_pair", "plan_farthest_pair",
              "FARTHESTPAIR"),
    Operation("union", 1, (), "union", "plan_union", "UNION"),
    Operation("voronoi", 1, (), "voronoi", "plan_voronoi", "VORONOI",
              records=lambda answer: list(answer.regions)),
)}

#: Pigeon keyword -> operation, for the one-relation statements.
BY_KEYWORD: Dict[str, Operation] = {
    op.keyword: op for op in OPERATIONS.values() if op.keyword
}
