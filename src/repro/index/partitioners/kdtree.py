"""K-d tree partitioning: alternating median splits of the sample.

Splits always fall on sample medians, so cells have near-equal record
counts regardless of skew; the resulting cells tile the space (disjoint
with replication).
"""

from __future__ import annotations

from typing import List, Sequence

from repro.geometry import Point, Rectangle
from repro.index.partitioners.base import TreePartitioner, expand_space


class _KdNode:
    __slots__ = ("rect", "axis", "split", "children", "cell_id")

    def __init__(self, rect: Rectangle):
        self.rect = rect
        self.axis = 0  # 0 = x split, 1 = y split (internal nodes only)
        self.split = 0.0
        self.children: tuple = ()  # (low, high); empty for a leaf
        self.cell_id = -1

    def child_index(self, x, y):
        """0 (low) or 1 (high) for a point, or for every point of two arrays."""
        return ((x if self.axis == 0 else y) >= self.split) * 1


class KdTreePartitioner(TreePartitioner):
    """K-d tree tiling; disjoint with replication."""

    technique = "kdtree"

    @classmethod
    def create(
        cls, sample: Sequence[Point], num_cells: int, space: Rectangle
    ) -> "KdTreePartitioner":
        root = _KdNode(expand_space(space))
        leaves: List[_KdNode] = []

        def make_leaf(node: _KdNode) -> None:
            node.cell_id = len(leaves)
            leaves.append(node)

        def build(node: _KdNode, pts: List[Point], cells: int, axis: int) -> None:
            if cells <= 1 or len(pts) < 2:
                return make_leaf(node)
            low_cells = cells // 2
            key = (lambda p: p.x) if axis == 0 else (lambda p: p.y)
            pts.sort(key=key)
            cut_index = round(len(pts) * low_cells / cells)
            cut_index = min(max(cut_index, 1), len(pts) - 1)
            split = key(pts[cut_index])
            r = node.rect
            if axis == 0:
                if not (r.x1 < split < r.x2):  # degenerate: give up splitting
                    return make_leaf(node)
                low_rect = Rectangle(r.x1, r.y1, split, r.y2)
                high_rect = Rectangle(split, r.y1, r.x2, r.y2)
            else:
                if not (r.y1 < split < r.y2):
                    return make_leaf(node)
                low_rect = Rectangle(r.x1, r.y1, r.x2, split)
                high_rect = Rectangle(r.x1, split, r.x2, r.y2)
            node.axis = axis
            node.split = split
            node.children = (_KdNode(low_rect), _KdNode(high_rect))
            build(node.children[0], pts[:cut_index], low_cells, 1 - axis)
            build(node.children[1], pts[cut_index:], cells - low_cells, 1 - axis)

        build(root, list(sample), max(1, num_cells), 0)
        return cls(root, leaves)
