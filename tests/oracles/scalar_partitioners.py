"""The ``Point``-list partition planners, kept as the oracle.

These are the techniques' ``create`` methods as they ran before planning
went columnar: Python sorts with key functions over ``Point`` objects and
per-point quadrant buckets. :func:`scalar_create` builds the production
partitioner class from the plan they compute, so its cells, boundaries and
routing can be compared with ``cls.create``'s.
"""

from __future__ import annotations

import math
from typing import List, Sequence

import numpy as np

from repro.geometry import Point, Rectangle
from repro.index.partitioners.base import expand_space
from repro.index.partitioners.kdtree import _KdNode
from repro.index.partitioners.quadtree import _MAX_DEPTH, _QuadNode


def _str(cls, sample: Sequence[Point], num_cells: int, space: Rectangle):
    pts = sorted(sample, key=lambda p: (p.x, p.y))
    num_cells = max(1, num_cells)
    num_slices = max(1, math.ceil(math.sqrt(num_cells)))
    tiles_per_slice = max(1, math.ceil(num_cells / num_slices))
    if not pts:
        return cls(space, [], [[]])
    per_slice = math.ceil(len(pts) / num_slices)
    x_bounds: List[float] = []
    slices: List[List[Point]] = []
    for s in range(0, len(pts), per_slice):
        slices.append(pts[s : s + per_slice])
        if s + per_slice < len(pts):
            x_bounds.append(pts[s + per_slice].x)
    y_bounds_per_slice: List[List[float]] = []
    for chunk in slices:
        by_y = sorted(chunk, key=lambda p: p.y)
        per_tile = math.ceil(len(by_y) / tiles_per_slice)
        y_bounds_per_slice.append(
            [by_y[t].y for t in range(per_tile, len(by_y), per_tile)]
        )
    return cls(space, x_bounds, y_bounds_per_slice)


def _kdtree(cls, sample: Sequence[Point], num_cells: int, space: Rectangle):
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
            if not (r.x1 < split < r.x2):
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


def _quadtree(cls, sample: Sequence[Point], num_cells: int, space: Rectangle):
    root = _QuadNode(expand_space(space))
    threshold = max(1, math.ceil(len(sample) / max(1, num_cells)))
    leaves: List[_QuadNode] = []

    def build(node: _QuadNode, pts: List[Point], depth: int) -> None:
        if len(pts) <= threshold or depth >= _MAX_DEPTH:
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
        buckets: List[List[Point]] = [[], [], [], []]
        for p in pts:
            buckets[node.child_index(p.x, p.y)].append(p)
        for child, bucket in zip(node.children, buckets):
            build(child, bucket, depth + 1)

    build(root, list(sample), 0)
    return cls(root, leaves)


def _curve(cls, sample: Sequence[Point], num_cells: int, space: Rectangle):
    self = cls(space, [])
    xs, ys = (
        np.array([getattr(p, axis) for p in sample], dtype=float)
        for axis in "xy"
    )
    values = np.sort(self._curve_values(xs, ys)).tolist()
    num_cells = max(1, num_cells)
    if values and num_cells > 1:
        per_cell = math.ceil(len(values) / num_cells)
        self._splits = [
            values[i] for i in range(per_cell, len(values), per_cell)
        ]
    return self


_PLANNERS = {
    "str": _str,
    "str+": _str,
    "kdtree": _kdtree,
    "quadtree": _quadtree,
    "zcurve": _curve,
    "hilbert": _curve,
}


def scalar_create(
    cls, sample: Sequence[Point], num_cells: int, space: Rectangle
):
    """``cls`` planned over a ``Point`` sample the record-at-a-time way."""
    if cls.technique == "grid":  # the grid never reads its sample
        return cls(space, grid_size=max(1, math.ceil(math.sqrt(num_cells))))
    return _PLANNERS[cls.technique](cls, sample, num_cells, space)
