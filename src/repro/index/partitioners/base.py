"""Partitioner interface shared by all techniques.

A partitioner is created from a *sample* of the input (the sampled centres
as two coordinate arrays, or as points), a target cell count and the exact
file MBR (``space``). It must then route any record
— sampled or not — to its cell(s):

* **disjoint** techniques tile the space with half-open cells; a point maps
  to exactly one cell and an extended shape is *replicated* to every cell
  whose boundary rectangle its MBR intersects, boundaries included
  (query-time duplicate avoidance undoes the replication);
* **overlapping** techniques assign every record to exactly one cell (by
  its centre); the resulting partition MBRs may overlap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Any, ClassVar, List, Sequence, Tuple, Union

import numpy as np

from repro.geometry import Point, Rectangle

#: Fraction by which the space MBR is expanded on the top/right so that
#: records sitting exactly on the global maximum boundary still fall into
#: the last (half-open) cell.
_SPACE_MARGIN = 1e-9


def shape_mbr(record: object) -> Rectangle:
    """The MBR of any record (shapes and features expose ``.mbr``)."""
    mbr = getattr(record, "mbr", None)
    if mbr is None:
        raise TypeError(f"record has no mbr: {record!r}")
    return mbr


#: A planning sample: ``(xs, ys)`` centre arrays, or a ``Point`` sequence.
Sample = Union[Tuple[np.ndarray, np.ndarray], Sequence[Point]]


def sample_columns(sample: Sample) -> Tuple[np.ndarray, np.ndarray]:
    """A sample as float64 ``(xs, ys)``; ``Point`` sequences are split."""
    if isinstance(sample, tuple) and len(sample) == 2 and isinstance(
        sample[0], np.ndarray
    ):
        return np.asarray(sample[0], float), np.asarray(sample[1], float)
    return (
        np.fromiter((p.x for p in sample), float, len(sample)),
        np.fromiter((p.y for p in sample), float, len(sample)),
    )


def expand_space(space: Rectangle) -> Rectangle:
    """Nudge the top/right of ``space`` outward for half-open tilings."""
    pad_x = max(abs(space.x2), 1.0) * _SPACE_MARGIN + 1e-12
    pad_y = max(abs(space.y2), 1.0) * _SPACE_MARGIN + 1e-12
    return Rectangle(space.x1, space.y1, space.x2 + pad_x, space.y2 + pad_y)


class Partitioner(ABC):
    """Routes records to global-index cells.

    :meth:`assign` routes one MBR; :meth:`partition_columns` routes a whole
    split from its MBR columns and is what the index build calls. It runs
    the technique's array kernels — ``_point_cells(xs, ys)``, one cell id
    per point, and for disjoint techniques ``_overlapping_cells(x1, y1,
    x2, y2)``, the ``(row, cell)`` pairs of extended shapes — built only
    from IEEE-exact operations so they agree with :meth:`assign` element
    for element.
    """

    technique: ClassVar[str] = "abstract"
    disjoint: ClassVar[bool] = False

    @abstractmethod
    def num_cells(self) -> int:
        """How many cells this partitioner defines."""

    @abstractmethod
    def assign_point(self, p: Point) -> int:
        """The single cell id of a point record."""

    def assign(self, mbr: Rectangle) -> List[int]:
        """Cell ids for a record with the given MBR.

        Default behaviour covers the two families: disjoint partitioners
        override :meth:`overlapping_cells`; overlapping partitioners route
        by the MBR centre.
        """
        if self.disjoint and (mbr.width > 0 or mbr.height > 0):
            return self.overlapping_cells(mbr)
        return [self.assign_point(mbr.center)]

    def overlapping_cells(self, mbr: Rectangle) -> List[int]:
        """Cells a (non-degenerate) MBR overlaps — disjoint techniques only."""
        raise NotImplementedError(
            f"{self.technique} does not replicate extended shapes"
        )

    def partition_columns(self, x1, y1, x2, y2) -> List[Tuple[int, Any]]:
        """Route every row: ``(cell id, ascending row offsets)`` per cell.

        A row of a disjoint technique appears under every cell its MBR
        overlaps (replication), otherwise under the cell of its centre.
        """
        rows = np.arange(len(x1))
        cells = self._point_cells((x1 + x2) / 2.0, (y1 + y2) / 2.0)
        if self.disjoint:
            extended = (x2 - x1 > 0) | (y2 - y1 > 0)
            if extended.any():
                ext = rows[extended]
                owner, ext_cells = self._overlapping_cells(
                    x1[ext], y1[ext], x2[ext], y2[ext]
                )
                rows = np.concatenate((rows[~extended], ext[owner]))
                cells = np.concatenate((cells[~extended], ext_cells))
        order = np.lexsort((rows, cells))
        heads, starts = np.unique(cells[order], return_index=True)
        return list(zip(heads.tolist(), np.split(rows[order], starts[1:])))

    def cell_rect(self, cell_id: int) -> Rectangle:
        """The boundary rectangle of a cell, when the technique defines one.

        Disjoint techniques always have boundary rectangles (they tile the
        space); curve-based overlapping techniques have none and raise.
        """
        raise NotImplementedError(
            f"{self.technique} cells have no predefined boundary"
        )


class TreePartitioner(Partitioner):
    """A disjoint tiling stored as a tree of half-open rectangles.

    Shared by the quad-tree and the k-d tree: nodes expose ``rect``,
    ``children`` (empty for a leaf), ``cell_id`` (leaves) and
    ``child_index(x, y)`` — the child a point (or every point of two
    coordinate arrays) descends into.
    """

    disjoint = True

    def __init__(self, root: Any, leaves: List[Any]):
        self._root = root
        self._leaves = leaves

    def num_cells(self) -> int:
        return len(self._leaves)

    def assign_point(self, p: Point) -> int:
        node = self._root
        while node.children:
            node = node.children[node.child_index(p.x, p.y)]
        return node.cell_id

    def overlapping_cells(self, mbr: Rectangle) -> List[int]:
        out: List[int] = []
        stack = [self._root]
        while stack:
            node = stack.pop()
            if not node.rect.intersects(mbr):
                continue
            if node.children:
                stack.extend(node.children)
            else:
                out.append(node.cell_id)
        return out

    def cell_rect(self, cell_id: int) -> Rectangle:
        if not (0 <= cell_id < len(self._leaves)):
            raise KeyError(f"no such cell: {cell_id}")
        return self._leaves[cell_id].rect

    def _point_cells(self, xs, ys):
        cells = np.empty(len(xs), dtype=np.intp)
        stack = [(self._root, np.arange(len(xs)))]
        while stack:
            node, rows = stack.pop()
            if not node.children:
                cells[rows] = node.cell_id
                continue
            child = node.child_index(xs[rows], ys[rows])
            for k, sub in enumerate(node.children):
                picked = rows[child == k]
                if picked.size:
                    stack.append((sub, picked))
        return cells

    def _overlapping_cells(self, x1, y1, x2, y2):
        owners = [np.empty(0, np.intp)]
        cells = [np.empty(0, np.intp)]
        stack = [(self._root, np.arange(len(x1)))]
        while stack:
            node, rows = stack.pop()
            r = node.rect
            rows = rows[
                (r.x1 <= x2[rows]) & (x1[rows] <= r.x2)
                & (r.y1 <= y2[rows]) & (y1[rows] <= r.y2)
            ]
            if not rows.size:
                continue
            if node.children:
                stack.extend((sub, rows) for sub in node.children)
            else:
                owners.append(rows)
                cells.append(np.full(rows.size, node.cell_id, dtype=np.intp))
        return np.concatenate(owners), np.concatenate(cells)
