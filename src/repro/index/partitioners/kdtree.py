"""K-d tree partitioning: alternating median splits of the sample.

Splits always fall on sample medians, so cells have near-equal record
counts regardless of skew; the resulting cells tile the space (disjoint
with replication).
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.geometry import Rectangle
from repro.index.partitioners.base import (
    Sample,
    TreePartitioner,
    expand_space,
    sample_columns,
)


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
        cls, sample: Sample, num_cells: int, space: Rectangle
    ) -> "KdTreePartitioner":
        coords = sample_columns(sample)
        root = _KdNode(expand_space(space))
        leaves: List[_KdNode] = []

        def make_leaf(node: _KdNode) -> None:
            node.cell_id = len(leaves)
            leaves.append(node)

        def build(node: _KdNode, rows, cells: int, axis: int) -> None:
            # ``rows`` index the sample in the order the parent node's
            # stable sort left them, so points tied on this axis fall on
            # the same side of the cut in every build.
            if cells <= 1 or len(rows) < 2:
                return make_leaf(node)
            low_cells = cells // 2
            key = coords[axis]
            rows = rows[np.argsort(key[rows], kind="stable")]
            cut_index = round(len(rows) * low_cells / cells)
            cut_index = min(max(cut_index, 1), len(rows) - 1)
            split = float(key[rows[cut_index]])
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
            build(node.children[0], rows[:cut_index], low_cells, 1 - axis)
            build(node.children[1], rows[cut_index:], cells - low_cells, 1 - axis)

        build(root, np.arange(len(coords[0])), max(1, num_cells), 0)
        return cls(root, leaves)
