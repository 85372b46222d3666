"""Quad-tree partitioning: recursive four-way splits of dense regions.

The space is split into four quadrants whenever the sample count of a
region exceeds its share; leaves become the (disjoint) partitions. Adapts
to skew while keeping the sibling-merge structure several operations rely
on.
"""

from __future__ import annotations

import math
from typing import List

from repro.geometry import Rectangle
from repro.index.partitioners.base import (
    Sample,
    TreePartitioner,
    expand_space,
    sample_columns,
)

_MAX_DEPTH = 24


class _QuadNode:
    __slots__ = ("rect", "children", "cell_id", "mx", "my")

    def __init__(self, rect: Rectangle):
        self.rect = rect
        self.children: List["_QuadNode"] = []
        self.cell_id = -1
        self.mx = (rect.x1 + rect.x2) / 2.0
        self.my = (rect.y1 + rect.y2) / 2.0

    def child_index(self, x, y):
        """Quadrant of a point (or of every point of two arrays)."""
        return 2 * (y >= self.my) + (x >= self.mx)


class QuadTreePartitioner(TreePartitioner):
    """Quad-tree tiling; disjoint with replication."""

    technique = "quadtree"

    @classmethod
    def create(
        cls, sample: Sample, num_cells: int, space: Rectangle
    ) -> "QuadTreePartitioner":
        xs, ys = sample_columns(sample)
        root = _QuadNode(expand_space(space))
        threshold = max(1, math.ceil(len(xs) / max(1, num_cells)))
        leaves: List[_QuadNode] = []

        def build(node: _QuadNode, xs, ys, depth: int) -> None:
            if len(xs) <= threshold or depth >= _MAX_DEPTH:
                node.cell_id = len(leaves)
                leaves.append(node)
                return
            r, mx, my = node.rect, node.mx, node.my
            node.children = [
                _QuadNode(Rectangle(r.x1, r.y1, mx, my)),
                _QuadNode(Rectangle(mx, r.y1, r.x2, my)),
                _QuadNode(Rectangle(r.x1, my, mx, r.y2)),
                _QuadNode(Rectangle(mx, my, r.x2, r.y2)),
            ]
            quadrant = node.child_index(xs, ys)
            for k, child in enumerate(node.children):
                mask = quadrant == k
                build(child, xs[mask], ys[mask], depth + 1)

        build(root, xs, ys, 0)
        return cls(root, leaves)
