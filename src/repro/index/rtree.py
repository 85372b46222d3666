"""A packed-array STR R-tree, and a block's local index as a view of it.

SpatialHadoop stores a bulk-loaded R-tree inside every block. Here an
indexed block already stores its rows in STR order, so the tree adds
only the MBRs of each run of ``node_capacity`` rows: the local index is
derived from the block body on first use (:func:`block_columns`,
:func:`local_index`), cached on the in-process block and never stored.
Range queries answer with one mask over the block's MBR columns, which
beats a tree descent on blocks of this size; kNN walks the packed leaves.

The tree is arrays, not objects. The entry MBRs are four float64 columns
in *packed order*; every ``node_capacity`` consecutive rows form one leaf,
and the leaf MBRs are again four columns (``minimum/maximum.reduceat`` of
the entries). Blocks hold a few thousand rows, so one leaf level under
the root MBR is all a query descends; no higher level is kept. Queries
answer with **row numbers**: the index build stores a block's records in
packed order (:func:`str_order`), so row ``i`` of the tree is
``block.records[i]`` and no record reference lives in the tree.

The tree is static (bulk-load only), which matches how SpatialHadoop uses
local indexes — blocks are immutable once written.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import takewhile
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import Point, Rectangle, vectorized
from repro.index.partitioners.base import shape_mbr
from repro.mapreduce.columnar import _phase

DEFAULT_NODE_CAPACITY = 32

Columns = Tuple[Any, Any, Any, Any]  # x1, y1, x2, y2

def mbr_columns(records: Sequence[Any]) -> Columns:
    """The MBRs of ``records`` as four columns: one ``shape_mbr`` each."""
    mbrs = [shape_mbr(r) for r in records]
    return tuple(
        np.fromiter(
            [getattr(m, name) for m in mbrs], dtype=np.float64, count=len(mbrs)
        )
        for name in ("x1", "y1", "x2", "y2")
    )


def _view(block: Any) -> tuple:
    """The block's cached ``(body, columns, tree or None)``, derived anew
    when its body was replaced."""
    payload = block.columnar
    body = payload or block.records
    view = block.local_view
    if view is None or view[0] is not body:
        columns = mbr_columns(body) if payload is None else (
            payload.mbr_columns())
        view = block.local_view = (body, columns, None)
    return view


def block_columns(block: Any) -> Columns:
    """A block's MBR columns, derived from its body on first use.

    The columnar payload's own columns (no copies), or one ``shape_mbr``
    per record for a block without a payload (polygons, mixed shapes).
    Cached on the in-process :class:`~repro.mapreduce.fs.Block`; no
    pickle of a block (workspace, pool, journal) carries them.
    """
    return _view(block)[1]


def local_index(block: Any) -> "RTree":
    """The block's local index: :func:`block_columns` packed into leaves
    on first use, and cached beside them.

    The index build stores rows in STR order, so these are the leaves a
    bulk load would build; on any other row order the tree answers the
    same, only with less pruning.
    """
    body, columns, tree = _view(block)
    if tree is None:
        tree = RTree.from_columns(*columns)
        block.local_view = (body, columns, tree)
    return tree


def columns_mbr(x1, y1, x2, y2) -> Rectangle:
    """The MBR of all rows of the given (non-empty) MBR columns."""
    bounds = _pack_level((x1, y1, x2, y2), len(x1))
    return Rectangle(*(float(col[0]) for col in bounds))


def str_order(x1, y1, x2, y2, capacity: int = DEFAULT_NODE_CAPACITY):
    """Sort-Tile-Recursive packing order of the given MBR columns.

    Rows are sorted by centre x and cut into vertical slices holding a
    whole number of leaves, then each slice is sorted by centre y; both
    sorts are stable, so equal centres keep their input order.
    """
    n = len(x1)
    leaves = max(1, math.ceil(n / capacity))
    per_slice = capacity * math.ceil(leaves / math.ceil(math.sqrt(leaves)))
    cx, cy = x1 + x2, y1 + y2
    by_x = np.argsort(cx, kind="stable")
    slice_of = np.arange(n) // per_slice
    return by_x[np.lexsort((cy[by_x], slice_of))]


def _pack_level(cols: Columns, capacity: int) -> Columns:
    """MBR columns of the runs of ``capacity`` consecutive rows."""
    x1, y1, x2, y2 = cols
    starts = np.arange(0, len(x1), capacity)
    return (
        np.minimum.reduceat(x1, starts),
        np.minimum.reduceat(y1, starts),
        np.maximum.reduceat(x2, starts),
        np.maximum.reduceat(y2, starts),
    )


@dataclass(eq=False)
class RTree:
    """Static packed R-tree over four MBR columns; answers in row numbers."""

    columns: Columns
    #: Leaf MBR columns: leaf ``j`` bounds rows ``[j * cap, (j + 1) * cap)``.
    leaves: Columns
    node_capacity: int = DEFAULT_NODE_CAPACITY
    #: Packed position -> caller's row, when the caller's rows were not in
    #: packed order (:meth:`from_shapes`); None = identity.
    _rows: Optional[Sequence[int]] = None

    @classmethod
    def from_columns(
        cls, x1, y1, x2, y2, node_capacity: int = DEFAULT_NODE_CAPACITY
    ) -> "RTree":
        """Pack rows *in the given order* (see :func:`str_order`)."""
        if node_capacity < 2:
            raise ValueError("node capacity must be at least 2")
        cols = (x1, y1, x2, y2)
        return cls(cols, _pack_level(cols, node_capacity), node_capacity)

    @classmethod
    def from_shapes(
        cls, shapes: Sequence[Any], node_capacity: int = DEFAULT_NODE_CAPACITY
    ) -> "RTree":
        """Index shapes in any order; rows answer as positions in ``shapes``."""
        cols = mbr_columns(shapes)
        order = str_order(*cols, node_capacity)
        tree = cls.from_columns(*(c[order] for c in cols), node_capacity)
        tree._rows = order
        return tree

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def mbr(self) -> Optional[Rectangle]:
        return columns_mbr(*self.leaves) if len(self) else None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _leaf_rows(self, leaves: List[int]):
        """The rows of the given leaves (ascending), ascending."""
        cap, n = self.node_capacity, len(self)
        rows = (np.asarray(leaves)[:, None] * cap + np.arange(cap)).ravel()
        short = leaves[-1] * cap + cap - n  # only the last leaf can be
        return rows[:-short] if short > 0 else rows

    def _answer(self, rows, picked):
        """``rows[picked]`` as the caller's row numbers (an int array)."""
        rows = rows[picked]
        return rows if self._rows is None else self._rows[rows]

    def search(
        self, rect: Rectangle, owner: Optional[Rectangle] = None
    ) -> List[int]:
        """Ascending rows whose MBR intersects ``rect`` (closed).

        With ``owner`` (a disjoint partition's cell) a row also has to
        pass reference-point duplicate avoidance: the bottom-left corner
        of its MBR's intersection with ``rect`` lies in the half-open
        ``owner``, so a replicated record answers in exactly one cell.
        """
        if not len(self):
            return []
        with _phase("rtree-probe"):
            leaves = vectorized.rects_intersect(*self.leaves, rect)
            if not leaves:
                return []
            rows = self._leaf_rows(leaves)
            cols = [col[rows] for col in self.columns]
            if owner is None:
                hits = vectorized.rects_intersect(*cols, rect)
            else:
                hits = vectorized.rects_intersect_owned(*cols, rect, owner)
            out = self._answer(rows, hits)
            return (out if self._rows is None else np.sort(out)).tolist()

    def knn(self, query: Point, k: int) -> List[Tuple[float, int]]:
        """The ``k`` rows nearest to ``query`` as ``(distance, row)``.

        Exact for point records and MBR-distance-based for extended
        shapes, which is the contract SpatialHadoop's kNN uses. The pairs
        of :meth:`nearest` (unbounded): rows ranked by ``(squared
        distance, row)``, true distances. Returns fewer than ``k`` pairs
        when the tree is smaller than ``k``.
        """
        rows, _dsq, distances = self.nearest(query, k)
        return list(zip(distances, rows.tolist()))

    def nearest(self, query: Point, k: int, bound: float = math.inf):
        """The ``k`` rows nearest to ``query`` within squared distance
        ``bound``, as ``(rows, dsq, distances)``.

        Rows are *ranked* by ``(squared distance, row)`` — the order a
        scan of the block produces (:func:`vectorized.nearest_rows`) —
        and come as an int array beside their squared distances; the
        true distances are recomputed on the winners only (see
        :mod:`repro.geometry.vectorized`).

        Leaves are visited by ascending minimum distance, none beyond
        ``bound``: the first few hold ``k`` candidates, whose k-th
        distance bounds which of the remaining leaves can still hold a
        closer (or tied) row.
        """
        if k <= 0:
            raise ValueError("k must be positive")
        with _phase("rtree-probe"):
            qx, qy = query.x, query.y
            leaf_dsq = vectorized.rect_min_distance_sq(*self.leaves, qx, qy)
            by_distance = vectorized.topk_within(
                leaf_dsq, len(leaf_dsq), bound
            ).tolist()
            if not by_distance:
                return np.empty(0, np.intp), np.empty(0), []
            # Only the last leaf is short.
            first = -(-k // self.node_capacity) + 1

            def candidates(leaves):
                rows = self._leaf_rows(sorted(leaves))
                cols = [col[rows] for col in self.columns]
                dsq = vectorized.rect_min_distance_sq(*cols, qx, qy)
                return rows, cols, dsq

            rows, cols, dsq = candidates(by_distance[:first])
            if len(by_distance) > first:
                kth = dsq[vectorized.topk_by_distance(dsq, k)[-1]]
                more = list(takewhile(lambda j: leaf_dsq[j] <= kth,
                                      by_distance[first:]))
                if more:
                    rows, cols, dsq = candidates(by_distance[:first] + more)
            top = vectorized.topk_within(dsq, k, bound)
            return (
                self._answer(rows, top),
                dsq[top],
                vectorized.mbr_distances([col[top] for col in cols], qx, qy),
            )
