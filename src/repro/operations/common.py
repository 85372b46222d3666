"""Small helpers shared by the operations layer."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.geometry import Point
from repro.index.rtree import block_columns
from repro.observe.plan import PlanNode, estimate_job_cost


class ShapeError(TypeError, ValueError):
    """An operation was given records of a shape it is not defined on.

    A :class:`TypeError` (callers that catch the wrong-type error keep
    working) and a :class:`ValueError` (the CLI reports it on one
    ``error:`` line, as it does any bad input).
    """


def as_point(record: Any) -> Point:
    """The point of a point-record (bare Point or a Feature wrapping one).

    The computational-geometry operations (skyline, convex hull, closest
    and farthest pair) are defined over point sets; extended shapes are
    rejected rather than silently reduced to centroids.
    """
    if isinstance(record, Point):
        return record
    shape = getattr(record, "shape", None)
    if isinstance(shape, Point):
        return shape
    raise ShapeError(
        f"operation defined on points only; found {type(record).__name__}"
    )


def as_points(records: Iterable[Any]) -> List[Point]:
    """Convert a record iterable to points (see :func:`as_point`)."""
    return [as_point(r) for r in records]


def point_columns(block: Any) -> Tuple[Any, Any]:
    """The ``(xs, ys)`` columns of a block of point records.

    The column form of :func:`as_points`: a record whose MBR is not a
    single point is rejected, not reduced to a corner.
    """
    x1, y1, x2, y2 = block_columns(block)
    for low, high in ((x1, x2), (y1, y2)):
        if low is not high and not (low == high).all():
            raise ShapeError("operation defined on points only; found "
                             "records that are not points")
    return x1, y1


# ----------------------------------------------------------------------
# EXPLAIN plan builders shared by the single-file operations
# ----------------------------------------------------------------------
def plan_indexed_scan(
    runner: Any,
    op_name: str,
    job_name: str,
    gindex: Any,
    selected: List[Any],
    map_desc: str,
    reduce_desc: str = "none",
    shuffle_records: int = 0,
    detail: Optional[Dict[str, Any]] = None,
    filter_desc: str = "every-partition",
) -> PlanNode:
    """One-round indexed plan: filter step + a single partition-scan job."""
    root = PlanNode(
        op_name,
        kind="operation",
        detail={
            "strategy": "indexed",
            "technique": gindex.technique,
            **(detail or {}),
        },
        estimated={"rounds": 1},
    )
    root.add(
        PlanNode(
            "GlobalIndexFilter",
            kind="filter",
            detail={"filter": filter_desc},
            estimated={
                "partitions_total": len(gindex),
                "partitions_scanned": len(selected),
                "partitions_pruned": len(gindex) - len(selected),
            },
        )
    )
    records_in = [c.num_records for c in selected]
    root.add(
        PlanNode(
            job_name,
            kind="job",
            detail={"map": map_desc, "reduce": reduce_desc},
            estimated={
                "blocks_read": len(selected),
                "records_read": sum(records_in),
                "shuffle_records": shuffle_records,
                "cost": estimate_job_cost(
                    runner.cluster,
                    records_in,
                    reduce_records_in=(
                        [shuffle_records] if shuffle_records else []
                    ),
                    shuffle_records=shuffle_records,
                ),
            },
        )
    )
    return root


def plan_full_scan(
    runner: Any,
    file_name: str,
    op_name: str,
    job_name: str,
    map_desc: str,
    reduce_desc: str = "none",
    shuffle_per_block: int = 0,
    detail: Optional[Dict[str, Any]] = None,
) -> PlanNode:
    """One-round heap-file plan: every block read, optional merge reducer."""
    entry = runner.fs.get(file_name)
    shuffle = shuffle_per_block * entry.num_blocks
    root = PlanNode(
        op_name,
        kind="operation",
        detail={"strategy": "full-scan", **(detail or {})},
        estimated={"rounds": 1},
    )
    root.add(
        PlanNode(
            job_name,
            kind="job",
            detail={"map": map_desc, "reduce": reduce_desc},
            estimated={
                "blocks_read": entry.num_blocks,
                "records_read": entry.num_records,
                "shuffle_records": shuffle,
                "cost": estimate_job_cost(
                    runner.cluster,
                    [len(b) for b in entry.blocks],
                    reduce_records_in=[shuffle] if shuffle else [],
                    shuffle_records=shuffle,
                ),
            },
        )
    )
    return root
