"""The ``array('d')`` backend the batch kernels used to have, as a reference.

Before NumPy became a declared dependency, every kernel of
:mod:`repro.geometry.vectorized`, the packing order of
:func:`repro.index.rtree.str_order` and the routing of
:meth:`repro.index.partitioners.base.Partitioner.partition_columns` had a
second branch of plain Python loops over ``array('d')`` columns. Those
branches are collected here, code unchanged but for the function names,
so the property tests keep comparing the NumPy kernels with an
independent scalar implementation of the same contract: the same
arguments, the same rows in the same order, the same ties.
"""

from __future__ import annotations

import heapq
import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import List, Tuple

from repro.geometry import Rectangle
from repro.geometry.vectorized import _closest_pair_divide, _monotone_chain


def points_in_rect(xs, ys, rect) -> List[int]:
    x1, y1, x2, y2 = rect.x1, rect.y1, rect.x2, rect.y2
    return [
        i
        for i in range(len(xs))
        if x1 <= xs[i] <= x2 and y1 <= ys[i] <= y2
    ]


def point_distance_sq(xs, ys, px: float, py: float):
    out = []
    append = out.append
    for i in range(len(xs)):
        dx = xs[i] - px
        dy = ys[i] - py
        append(dx * dx + dy * dy)
    return out


def rect_min_distance_sq(x1s, y1s, x2s, y2s, px: float, py: float):
    out = []
    append = out.append
    for i in range(len(x1s)):
        dx = max(x1s[i] - px, 0.0, px - x2s[i])
        dy = max(y1s[i] - py, 0.0, py - y2s[i])
        append(dx * dx + dy * dy)
    return out


def topk_by_distance(dsq, k: int) -> List[int]:
    if k <= 0:
        return []
    return sorted(range(len(dsq)), key=lambda i: (dsq[i], i))[:k]


def join_rows(left, right):
    """The same two windows as the kernel, found by bisection, swept in
    Python."""
    lx1, ly1, lx2, ly2 = left
    rx1, ry1, rx2, ry2 = right
    l_order = sorted(range(len(lx1)), key=lx1.__getitem__)
    r_order = sorted(range(len(rx1)), key=rx1.__getitem__)
    l_sorted = [lx1[i] for i in l_order]
    r_sorted = [rx1[j] for j in r_order]
    candidates = chain(
        ((i, r_order[at])
         for i in range(len(lx1))
         for at in range(bisect_left(r_sorted, lx1[i]),
                         bisect_right(r_sorted, lx2[i]))),
        ((l_order[at], j)
         for j in range(len(rx1))
         for at in range(bisect_right(l_sorted, rx1[j]),
                         bisect_right(l_sorted, rx2[j]))),
    )
    pairs = sorted(
        (i, j) for i, j in candidates
        if ly1[i] <= ry2[j] and ry1[j] <= ly2[i]
    )
    return (
        array("q", [p[0] for p in pairs]),
        array("q", [p[1] for p in pairs]),
    )


def pairs_owned(left, right, li, ri, cell):
    lx1, ly1 = left[0], left[1]
    rx1, ry1 = right[0], right[1]
    kept = [
        (a, b)
        for a, b in zip(li, ri)
        if cell.x1 <= max(lx1[a], rx1[b]) < cell.x2
        and cell.y1 <= max(ly1[a], ry1[b]) < cell.y2
    ]
    return (
        array("q", [p[0] for p in kept]),
        array("q", [p[1] for p in kept]),
    )


def knn_rows(qx, qy, cell_mbrs, cell_columns, k: int):
    """One query at a time."""
    num_cells = len(cell_columns)
    bases = [0]
    for cols in cell_columns:
        bases.append(bases[-1] + len(cols[0]))
    visits = [0] * num_cells
    rows, distances = [], []
    for x, y in zip(qx, qy):
        cell_dsq = rect_min_distance_sq(*cell_mbrs, x, y)
        # (squared distance, visit order, row in cell, cell), ascending.
        best: List[Tuple[float, int, int, int]] = []
        for step, cell in enumerate(topk_by_distance(cell_dsq, num_cells)):
            if len(best) >= k and cell_dsq[cell] > best[-1][0]:
                break
            visits[cell] += 1
            dsq = rect_min_distance_sq(*cell_columns[cell], x, y)
            best = heapq.nsmallest(
                k,
                best + [(d, step, row, cell) for row, d in enumerate(dsq)],
            )
        rows.append([bases[cell] + row for _, _, row, cell in best])
        found = []
        for _, _, row, cell in best:
            x1, y1, x2, y2 = (col[row] for col in cell_columns[cell])
            found.append(
                math.hypot(max(x1 - x, 0.0, x - x2), max(y1 - y, 0.0, y - y2))
            )
        distances.append(found)
    return rows, distances, visits


def points_near_boundary(xs, ys, cell, delta: float) -> List[int]:
    x1, y1, x2, y2 = cell.x1, cell.y1, cell.x2, cell.y2
    return [
        i
        for i in range(len(xs))
        if xs[i] - x1 < delta or x2 - xs[i] < delta
        or ys[i] - y1 < delta or y2 - ys[i] < delta
    ]


def closest_pair_rows(xs, ys):
    if len(xs) < 2:
        return None
    return _closest_pair_divide(xs, ys)


def hull_rows(xs, ys) -> List[int]:
    """Dict dedup (first row of each point), no octagon mask."""
    first = {(xs[i], ys[i]): i for i in reversed(range(len(xs)))}
    rows = [first[point] for point in sorted(first)]
    sx, sy = [xs[i] for i in rows], [ys[i] for i in rows]
    if len(rows) <= 2:
        return rows
    return [rows[at] for at in _monotone_chain(sx, sy)]


def str_order(x1, y1, x2, y2, capacity: int) -> List[int]:
    n = len(x1)
    leaves = max(1, math.ceil(n / capacity))
    per_slice = capacity * math.ceil(leaves / math.ceil(math.sqrt(leaves)))
    cx = [x1[i] + x2[i] for i in range(n)]
    cy = [y1[i] + y2[i] for i in range(n)]
    by_x = sorted(range(n), key=cx.__getitem__)
    order: List[int] = []
    for s in range(0, n, per_slice):
        order.extend(sorted(by_x[s:s + per_slice], key=cy.__getitem__))
    return order


def partition_columns(partitioner, x1, y1, x2, y2):
    """Every row routed by :meth:`Partitioner.assign`, one record at a
    time: ``(cell id, ascending row offsets)`` per cell."""
    groups: dict = {}
    for i in range(len(x1)):
        for cell in partitioner.assign(Rectangle(x1[i], y1[i], x2[i], y2[i])):
            groups.setdefault(cell, array("q")).append(i)
    return sorted(groups.items())
