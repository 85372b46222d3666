"""Batch geometry kernels over flat coordinate arrays.

The scalar geometry layer evaluates one predicate per Python call; the hot
loops of range queries, joins and kNN evaluate the *same* predicate over
every record of a block. This module provides the batch counterparts —
range filter, MBR intersection, point-in-rect, squared distance — over
the float64 NumPy columns of ``repro.mapreduce.columnar``: one vectorized
mask per block.

Bit-identity contract
---------------------
Every kernel returns *exactly* what the scalar path returns, in the same
order. Two rules make this possible:

1. Kernels are built only from IEEE-exact operations — comparisons,
   ``max`` and elementwise ``+``/``-``/``*`` round identically in NumPy
   float64 and Python floats. No ``sqrt``/``hypot`` in any selection or
   ranking decision.
2. Selection kernels return *record indices in record order* (or rank by
   ``(distance², index)``), mirroring the scalar loop's iteration order,
   so output lists match element for element.

``math.hypot`` is **not** used here on purpose: it is correctly rounded
from the exact sum of squares and therefore does not always equal
``sqrt(dx*dx + dy*dy)`` computed in floats — ranking by hypot and by
``dx*dx + dy*dy`` can disagree on near-ties. All distance *ranking* in
the library therefore uses squared distances — kNN's map tasks
(:func:`nearest_rows`, the R-tree's ``nearest``), its driver merge and
heap reducer, the kNN-join — and the user-facing distance values are
recomputed with ``math.hypot`` on the winners only
(:func:`mbr_distances`).

The pair kernels at the bottom (:func:`join_rows`, :func:`pairs_owned`,
:func:`knn_rows`, :func:`closest_pair_rows`) follow the same contract and
answer in *row numbers*; the spatial join, kNN-join and closest-pair
operations run on them and thaw records from the winners only. Their
candidate expansions and distance tiles hold at most
:data:`ELEMENT_BUDGET` elements, whatever the input. :func:`hull_rows`
serves the convex hull and farthest-pair operations the same way.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.common import EPS


# ----------------------------------------------------------------------
# Selection kernels (order-preserving index lists)
# ----------------------------------------------------------------------
def points_in_rect(xs, ys, rect) -> List[int]:
    """Indices ``i`` with ``rect.contains_point((xs[i], ys[i]))`` (closed)."""
    mask = (
        (xs >= rect.x1) & (xs <= rect.x2)
        & (ys >= rect.y1) & (ys <= rect.y2)
    )
    return np.flatnonzero(mask).tolist()


def rects_intersect(x1s, y1s, x2s, y2s, rect) -> List[int]:
    """Indices of rectangles intersecting ``rect`` (closed semantics)."""
    mask = (
        (x1s <= rect.x2) & (x2s >= rect.x1)
        & (y1s <= rect.y2) & (y2s >= rect.y1)
    )
    return np.flatnonzero(mask).tolist()


def points_in_rect_owned(xs, ys, rect, cell) -> List[int]:
    """Range filter + reference-point ownership for point records.

    The reference point of a point record is ``(max(x, rect.x1),
    max(y, rect.y1))``; ownership is the half-open containment test of
    :meth:`Rectangle.contains_point_left_inclusive` against ``cell``.
    """
    rx = np.maximum(xs, rect.x1)
    ry = np.maximum(ys, rect.y1)
    mask = (
        (xs >= rect.x1) & (xs <= rect.x2)
        & (ys >= rect.y1) & (ys <= rect.y2)
        & (rx >= cell.x1) & (rx < cell.x2)
        & (ry >= cell.y1) & (ry < cell.y2)
    )
    return np.flatnonzero(mask).tolist()


def rects_intersect_owned(x1s, y1s, x2s, y2s, rect, cell) -> List[int]:
    """Range filter + reference-point ownership for rectangle records."""
    rx = np.maximum(x1s, rect.x1)
    ry = np.maximum(y1s, rect.y1)
    mask = (
        (x1s <= rect.x2) & (x2s >= rect.x1)
        & (y1s <= rect.y2) & (y2s >= rect.y1)
        & (rx >= cell.x1) & (rx < cell.x2)
        & (ry >= cell.y1) & (ry < cell.y2)
    )
    return np.flatnonzero(mask).tolist()


# ----------------------------------------------------------------------
# Distance kernels (squared distances only: exact, rankable)
# ----------------------------------------------------------------------
def point_distance_sq(xs, ys, px: float, py: float):
    """Squared distance from every ``(xs[i], ys[i])`` to ``(px, py)``.

    Elementwise ``dx*dx + dy*dy``: identical rounding to the scalar
    :meth:`Point.distance_sq` / degenerate-MBR distance.
    """
    dx = xs - px
    dy = ys - py
    return dx * dx + dy * dy


def rect_min_distance_sq(x1s, y1s, x2s, y2s, px: float, py: float):
    """Squared minimum distance from ``(px, py)`` to every rectangle.

    Matches :meth:`Rectangle.min_distance_sq_point` exactly: the clamped
    axis gaps ``max(x1 - px, 0, px - x2)`` are computed with the same
    comparisons, and ``(-0.0)**2 == 0.0`` erases any signed-zero
    difference between ``max`` implementations.
    """
    dx = np.maximum(np.maximum(x1s - px, 0.0), px - x2s)
    dy = np.maximum(np.maximum(y1s - py, 0.0), py - y2s)
    return dx * dx + dy * dy


def topk_by_distance(dsq, k: int) -> List[int]:
    """Indices of the ``k`` smallest ``(dsq[i], i)`` pairs, in that order.

    Ties on the squared distance break by index — exactly the order a
    scalar loop that keeps the *first* seen of equal-distance records
    produces. A stable full argsort (not argpartition, whose tie handling
    is arbitrary) keeps the selected *set* deterministic.
    """
    if k <= 0:
        return []
    return np.argsort(dsq, kind="stable")[:k].tolist()


def topk_within(dsq, k: int, bound: float = math.inf):
    """:func:`topk_by_distance` without the rows beyond ``bound``.

    Positions (an int array) of the ``k`` smallest ``(dsq[i], i)`` pairs
    whose squared distance is at most ``bound``, ranked.
    """
    top = np.argsort(dsq, kind="stable")[:k]
    return top[:np.searchsorted(dsq[top], bound, side="right")]


def mbr_distances(cols: Columns, px, py) -> List[float]:
    """True distance from ``(px, py)`` to every row's MBR, flattened.

    ``math.hypot`` over the clamped axis gaps, taken with
    ``np.maximum`` (IEEE-exact, so the gaps equal the scalar ``max``'s
    and the distances :meth:`Rectangle.min_distance_point`'s). Call it
    on ranked winners only.
    """
    x1, y1, x2, y2 = cols
    return list(map(
        math.hypot,
        np.maximum(np.maximum(x1 - px, 0.0), px - x2).ravel().tolist(),
        np.maximum(np.maximum(y1 - py, 0.0), py - y2).ravel().tolist(),
    ))


# ----------------------------------------------------------------------
# Pair kernels (row numbers out; records thaw at the caller)
# ----------------------------------------------------------------------
#: The most elements any temporary of a pair kernel may hold (128 KiB of
#: float64, so a tile stays cache-resident): candidate expansions and
#: distance matrices are tiled to it.
ELEMENT_BUDGET = 1 << 14

Columns = Tuple[Any, Any, Any, Any]  # x1, y1, x2, y2


def expand_ranges(lo, hi):
    """Every ``(i, v)`` with ``lo[i] <= v <= hi[i]`` as two int arrays."""
    counts = hi - lo + 1
    owner = np.arange(len(lo)).repeat(counts)
    first = counts.cumsum() - counts
    return owner, lo[owner] + np.arange(len(owner)) - first[owner]


def _window_tiles(lo, hi, budget: int):
    """``expand_ranges(lo, hi - 1)`` in runs of whole rows.

    A run stops before its expansion would pass ``budget`` elements (one
    row's window is the least a run can hold).
    """
    ends = (hi - lo).cumsum()
    start = 0
    while start < len(lo):
        done = ends[start - 1] if start else 0
        stop = max(
            start + 1, int(ends.searchsorted(done + budget, side="right"))
        )
        owner, value = expand_ranges(lo[start:stop], hi[start:stop] - 1)
        yield owner + start, value
        start = stop


def join_rows(left: Columns, right: Columns, budget: int = ELEMENT_BUDGET):
    """All ``(left row, right row)`` pairs whose MBRs intersect (closed).

    Returns two int columns, ascending by ``(left row, right row)``. Both
    sides are ordered by ``x1``; a pair whose left rectangle starts first
    (or level) is found in the window of right rows with ``l.x1 <= r.x1
    <= l.x2``, any other pair in the window of left rows with ``r.x1 <
    l.x1 <= r.x2`` — each once — and one mask keeps the candidates that
    also overlap in y.
    """
    lx1, ly1, lx2, ly2 = left
    rx1, ry1, rx2, ry2 = right
    l_order = lx1.argsort(kind="stable")
    r_order = rx1.argsort(kind="stable")
    l_sorted, r_sorted = lx1[l_order], rx1[r_order]
    candidates = chain(
        ((i, r_order[at]) for i, at in _window_tiles(
            r_sorted.searchsorted(lx1, side="left"),
            r_sorted.searchsorted(lx2, side="right"), budget)),
        ((l_order[at], j) for j, at in _window_tiles(
            l_sorted.searchsorted(rx1, side="right"),
            l_sorted.searchsorted(rx2, side="right"), budget)),
    )
    found = [np.empty((2, 0), dtype=np.intp)]
    for i, j in candidates:
        keep = (ly1[i] <= ry2[j]) & (ry1[j] <= ly2[i])
        found.append((i[keep], j[keep]))
    li, ri = np.concatenate(found, axis=1)
    order = np.lexsort((ri, li))
    return li[order], ri[order]


def pairs_owned(left: Columns, right: Columns, li, ri, cell):
    """The pairs ``(li[t], ri[t])`` whose reference point ``cell`` owns.

    The reference point of a pair is the bottom-left corner of the two
    MBRs' intersection, ``(max(x1), max(y1))``; ``cell`` owns it under
    the half-open test of :meth:`Rectangle.contains_point_left_inclusive`.
    Returns the surviving ``(li, ri)``, order kept.
    """
    px = np.maximum(left[0][li], right[0][ri])
    py = np.maximum(left[1][li], right[1][ri])
    keep = (
        (px >= cell.x1) & (px < cell.x2)
        & (py >= cell.y1) & (py < cell.y2)
    )
    return li[keep], ri[keep]


def _mbr_distance_sq(cols: Columns, px, py):
    """Squared distance from ``(px, py)`` to every row's MBR.

    Point rows (columns aliased, as ``ColumnarPayload.mbr_columns`` hands
    them out) take the cheaper kernel: a degenerate rectangle's clamped
    gap is ``|x - px|``, whose square rounds the same.
    """
    x1, y1, x2, y2 = cols
    if x1 is x2 and y1 is y2:
        return point_distance_sq(x1, y1, px, py)
    return rect_min_distance_sq(x1, y1, x2, y2, px, py)


def nearest_rows(cols: Columns, px: float, py: float, k: int,
                 bound: float = math.inf):
    """The ``k`` rows nearest to ``(px, py)`` within squared distance
    ``bound``, ranked by ``(squared distance, row)``.

    Returns ``(rows, dsq, distances)``: the rows and their squared
    distances as arrays, and their true distances as a list.
    """
    dsq = _mbr_distance_sq(cols, px, py)
    top = topk_within(dsq, k, bound)
    return top, dsq[top], mbr_distances([col[top] for col in cols], px, py)


def knn_rows(
    qx, qy, cell_mbrs: Columns, cell_columns: Sequence[Columns], k: int,
    budget: int = ELEMENT_BUDGET,
):
    """For every query point, its ``k`` nearest rows among S's cells.

    ``cell_mbrs`` holds the boundary of each S cell (ascending cell id)
    and ``cell_columns[c]`` the MBR columns of cell ``c``'s rows; S rows
    are numbered across the cells, end to end. Every query visits the
    cells by ascending ``(squared MBR distance, cell)`` and stops before
    the first cell farther than its k-th neighbour so far; neighbours
    rank by ``(squared distance, visit order, S row)``, so a later cell
    never displaces an equally distant earlier find.

    Returns ``(rows, distances, visits)``: per query the S row of each
    neighbour and its true distance (``math.hypot`` on the winners
    only), nearest first, as lists of lists; and per cell how many
    queries visited it.
    """
    n = len(qx)
    if not cell_columns:
        return [[] for _ in range(n)], [[] for _ in range(n)], []
    bases = np.cumsum([0] + [len(cols[0]) for cols in cell_columns])
    visits = np.zeros(len(cell_columns), dtype=np.intp)
    best_dsq = np.full((n, k), np.inf)
    best_row = np.full((n, k), -1, dtype=np.intp)
    px, py = qx[:, None], qy[:, None]
    step = max(1, budget // len(cell_columns))
    for lo in range(0, n, step):
        run = slice(lo, lo + step)
        _knn_visit(
            px[run], py[run], cell_mbrs, cell_columns, bases,
            best_dsq[run], best_row[run], visits, budget,
        )
    found = min(k, int(bases[-1]))
    best = best_row[:, :found]
    x1, y1, x2, y2 = (
        np.concatenate([cols[c] for cols in cell_columns])[best]
        for c in range(4)
    )
    flat = mbr_distances((x1, y1, x2, y2), px, py)
    distances = [flat[q * found:(q + 1) * found] for q in range(n)]
    return best.tolist(), distances, visits.tolist()


def _knn_visit(
    px, py, cell_mbrs, cell_columns, bases, best_dsq, best_row, visits,
    budget: int,
):
    """Walk a run of queries (column vectors) through their cells,
    filling ``best_dsq`` / ``best_row`` (one row of k slots per query)."""
    n, k = best_dsq.shape
    cell_dsq = rect_min_distance_sq(*cell_mbrs, px, py)
    order = cell_dsq.argsort(axis=1, kind="stable")
    active = np.arange(n)
    cell_dsq = cell_dsq[active[:, None], order]
    for step in range(order.shape[1]):
        active = active[cell_dsq[active, step] <= best_dsq[active, k - 1]]
        if not active.size:
            break
        visiting = order[active, step]
        for cell in np.unique(visiting).tolist():
            group = active[visiting == cell]
            visits[cell] += group.size
            width = int(bases[cell + 1] - bases[cell])
            if not width:
                continue
            run = max(1, budget // width)
            for lo in range(0, group.size, run):
                rows = group[lo:lo + run]
                tile = _mbr_distance_sq(cell_columns[cell], px[rows], py[rows])
                _knn_merge(tile, bases[cell], rows, best_dsq, best_row)


def _knn_merge(tile, base, rows, best_dsq, best_row):
    """Fold a distance tile (queries ``rows`` x one cell's rows, which
    number from ``base``) into those queries' k best so far."""
    k = best_dsq.shape[1]
    # Every entry that can rank among a query's k best of this cell:
    # those up to its k-th smallest value, ties included.
    last = min(k, tile.shape[1]) - 1
    kth = np.partition(tile, last, axis=1)[:, last:last + 1]
    query, col = np.nonzero(tile <= kth)
    # Earlier finds come first and this cell's candidates follow in row
    # order, so the stable sort by (query, distance) ranks equal
    # distances by (visit order, S row).
    queries = np.arange(len(rows))
    who = np.concatenate((queries.repeat(k), query))
    dsq = np.concatenate((best_dsq[rows].ravel(), tile[query, col]))
    row = np.concatenate((best_row[rows].ravel(), col + base))
    ranked = np.lexsort((dsq, who))
    top = ranked[who[ranked].searchsorted(queries)[:, None] + np.arange(k)]
    best_dsq[rows] = dsq[top]
    best_row[rows] = row[top]


def points_near_boundary(xs, ys, cell, delta: float) -> List[int]:
    """Rows closer than ``delta`` to one of the four sides of ``cell``."""
    mask = (
        (xs - cell.x1 < delta) | (cell.x2 - xs < delta)
        | (ys - cell.y1 < delta) | (cell.y2 - ys < delta)
    )
    return np.flatnonzero(mask).tolist()


def closest_pair_rows(xs, ys) -> Optional[Tuple[int, int]]:
    """Two rows at the minimum squared distance, or None for < 2 rows.

    With the rows ordered by ``(x, y)``, row ``i`` is compared with row
    ``i + s`` for ``s = 1, 2, ...``; once the smallest x-gap at a shift,
    squared, reaches the best squared distance no later shift can win.
    Duplicates are adjacent in that order, so they end the sweep at
    distance 0 after the first shift. Inputs that keep the sweep alive
    past 4 sqrt(n) shifts (many rows sharing an x; by then it has cost
    about what the alternative does) go to the divide and conquer, which
    is O(n log n) on any input. Which of several equally close pairs is
    returned may differ between the two; the distance does not.
    """
    n = len(xs)
    if n < 2:
        return None
    order = np.lexsort((ys, xs))
    sx, sy = xs[order], ys[order]
    best, pair, limit = math.inf, None, 4 * math.isqrt(n)
    for shift in range(1, n):
        if shift > limit:
            return _closest_pair_divide(xs.tolist(), ys.tolist())
        dx = sx[shift:] - sx[:-shift]
        if float(dx.min()) ** 2 >= best:
            break
        dy = sy[shift:] - sy[:-shift]
        dsq = dx * dx + dy * dy
        at = int(dsq.argmin())
        if dsq[at] < best:
            best = float(dsq[at])
            pair = (int(order[at]), int(order[at + shift]))
    return pair


def hull_rows(xs, ys) -> List[int]:
    """Rows of the convex hull's vertices, counter-clockwise from the
    lowest ``(x, y)``: what :func:`repro.geometry.convex_hull` returns.

    Rows are sorted by ``(x, y)`` and exact duplicates dropped (the
    first row of each point stays); up to two distinct points are the
    answer as they are. Otherwise an Akl-Toussaint octagon first drops
    the rows strictly inside the polygon of the extreme rows in eight
    directions, by more than a rounding bound, so a row within rounding
    of the hull still reaches the chain. Andrew's monotone chain then
    runs over the rows with the cross product the hull always used, so
    collinear boundary points are dropped, and vertices within ``EPS``
    of their neighbour collapse (a sliver is not a polygon).
    """
    order = np.lexsort((ys, xs))
    sx, sy = xs[order], ys[order]
    keep = np.ones(len(order), dtype=bool)
    keep[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])  # first of equals
    if keep.sum() > 2:
        keep[keep] = ~_octagon_interior(sx[keep], sy[keep])
    rows, sx, sy = order[keep].tolist(), sx[keep].tolist(), sy[keep].tolist()
    if len(rows) <= 2:
        return rows
    return [rows[at] for at in _monotone_chain(sx, sy)]


def _octagon_interior(sx, sy):
    """Mask of the points (sorted by x) strictly inside the polygon of
    the extreme points in the eight compass directions, by more than
    the rounding of the cross products that decide it.

    A point strictly left of every edge of a closed loop of input points
    lies inside their hull, so the mask is sound even when rounding
    picks a not-quite-extreme point; a loop of fewer than three distinct
    points has no such point.
    """
    plus, minus = sx + sy, sx - sy
    extremes = [
        0, int(plus.argmin()), int(sy.argmin()), int(minus.argmax()),
        len(sx) - 1, int(plus.argmax()), int(sy.argmax()), int(minus.argmin()),
    ]
    loop = [e for i, e in enumerate(extremes) if e != extremes[i - 1]]
    inside = np.ones(len(sx), dtype=bool)
    span = (sx[-1] - sx[0]) + (sy.max() - sy.min())
    for a, b in zip(loop, loop[1:] + loop[:1]):
        ex, ey = sx[b] - sx[a], sy[b] - sy[a]
        cross = ex * (sy - sy[a]) - ey * (sx - sx[a])
        inside &= cross > 1e-12 * (abs(ex) + abs(ey)) * span
    return inside


def _monotone_chain(sx: List[float], sy: List[float]) -> List[int]:
    """Positions of the CCW hull of >= 3 distinct points sorted by
    ``(x, y)`` (Andrew's monotone chain, near-duplicates collapsed)."""

    def half(positions):
        out: List[int] = []
        for r in positions:
            while len(out) >= 2:
                o, a = out[-2], out[-1]
                if (sx[a] - sx[o]) * (sy[r] - sy[o]) - (sy[a] - sy[o]) * (
                    sx[r] - sx[o]
                ) > 0:
                    break
                out.pop()
            out.append(r)
        return out

    m = len(sx)
    hull = half(range(m))[:-1] + half(range(m - 1, -1, -1))[:-1]

    def near(a: int, b: int) -> bool:
        return abs(sx[a] - sx[b]) <= EPS and abs(sy[a] - sy[b]) <= EPS

    cleaned: List[int] = []
    for r in hull:
        if not cleaned or not near(cleaned[-1], r):
            cleaned.append(r)
    while len(cleaned) >= 2 and near(cleaned[0], cleaned[-1]):
        cleaned.pop()
    return cleaned


def _closest_pair_divide(xs, ys) -> Tuple[int, int]:
    """Classic divide and conquer on row numbers (needs >= 2 rows)."""
    by_x = sorted(range(len(xs)), key=lambda i: (xs[i], ys[i]))

    def scan(rows, best):
        """Compare each row with the following rows within best[0] in y."""
        count = len(rows)
        for at in range(count):
            a = rows[at]
            for nxt in range(at + 1, count):
                b = rows[nxt]
                dy = ys[b] - ys[a]
                if dy * dy >= best[0]:
                    break
                dx = xs[b] - xs[a]
                dsq = dx * dx + dy * dy
                if dsq < best[0]:
                    best = (dsq, a, b)
        return best

    def solve(lo, hi, best):
        """``(best, by_x[lo:hi] ordered by y)``; best is (dsq, row, row)."""
        if hi - lo <= 3:
            rows = sorted(by_x[lo:hi], key=ys.__getitem__)
            return scan(rows, best), rows
        mid = (lo + hi) // 2
        best, left = solve(lo, mid, best)
        best, right = solve(mid, hi, best)
        rows = sorted(left + right, key=ys.__getitem__)  # merges two runs
        mid_x = xs[by_x[mid]]
        strip = [r for r in rows if (xs[r] - mid_x) ** 2 < best[0]]
        return scan(strip, best), rows

    return solve(0, len(by_x), (math.inf, -1, -1))[0][1:]
