"""Batch geometry kernels over flat coordinate arrays.

The scalar geometry layer evaluates one predicate per Python call; the hot
loops of range queries, joins and kNN evaluate the *same* predicate over
every record of a block. This module provides the batch counterparts —
range filter, MBR intersection, point-in-rect, squared distance — over
columnar coordinate buffers (``repro.mapreduce.columnar``), with two
backends:

* **NumPy** when importable: one vectorized mask per block.
* **array('d') fallback**: plain Python loops with locals bound outside
  the loop, so the library works (slower) on a bare interpreter.

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
the library therefore uses squared distances (both modes), and the
user-facing distance values are recomputed with scalar ``math.hypot`` on
the winners only.

The pair kernels at the bottom (:func:`join_rows`, :func:`pairs_owned`,
:func:`knn_rows`, :func:`closest_pair_rows`) follow the same contract and
answer in *row numbers*; the spatial join, kNN-join and closest-pair
operations run on them and thaw records from the winners only. Their
candidate expansions and distance tiles hold at most
:data:`ELEMENT_BUDGET` elements, whatever the input. :func:`hull_rows`
serves the convex hull and farthest-pair operations the same way.

The ``REPRO_VECTORIZE`` environment variable (default on) is read
dynamically on every call, so tests can flip modes without rebuilding
state; ``REPRO_VECTORIZE=0`` forces the callers that still keep a scalar
path (range query, kNN, storage) back onto it.
"""

from __future__ import annotations

import heapq
import math
import os
from array import array
from bisect import bisect_left, bisect_right
from itertools import chain
from typing import Any, List, Optional, Sequence, Tuple

from repro.geometry.common import EPS

try:  # Optional dependency: everything below degrades to array('d').
    import numpy as _np
except Exception:  # pragma: no cover - exercised on numpy-free installs
    _np = None

#: Environment toggle: "0"/"false"/"off" disables the vectorized paths.
VECTORIZE_ENV_VAR = "REPRO_VECTORIZE"

_OFF_VALUES = {"0", "false", "off", "no"}


def mode() -> str:
    """The active execution mode: ``"off"``, ``"numpy"`` or ``"array"``."""
    raw = os.environ.get(VECTORIZE_ENV_VAR, "1").strip().lower()
    if raw in _OFF_VALUES:
        return "off"
    return "numpy" if _np is not None else "array"


def enabled() -> bool:
    """True when vectorized fast paths should be used."""
    return mode() != "off"


def has_numpy() -> bool:
    return _np is not None


def is_ndarray(a) -> bool:
    """True when ``a`` is a NumPy column (kernels dispatch on this)."""
    return _np is not None and isinstance(a, _np.ndarray)


def column_from_iter(values, count: int):
    """Build one float64 column on the preferred backend."""
    if _np is not None:
        return _np.fromiter(values, dtype=_np.float64, count=count)
    return array("d", values)


def take(col, rows):
    """The float64 column ``col[rows]``, on the backend of ``col``."""
    if is_ndarray(col):
        return col[rows]
    return array("d", [col[i] for i in rows])


def concat(cols):
    """The given float64 columns end to end, as one column."""
    if is_ndarray(cols[0]):
        return _np.concatenate(cols)
    out = array("d")
    for col in cols:
        out.extend(col)
    return out


def as_backend_array(seq) -> Sequence[float]:
    """Coerce a float64 buffer to the preferred kernel backend, zero-copy.

    NumPy views any buffer-protocol object (``array('d')``, ``memoryview``)
    without copying; without NumPy the input is returned unchanged.
    """
    if _np is not None and not isinstance(seq, _np.ndarray):
        try:
            return _np.frombuffer(seq, dtype=_np.float64)
        except (TypeError, ValueError):
            return seq
    return seq


# ----------------------------------------------------------------------
# Selection kernels (order-preserving index lists)
# ----------------------------------------------------------------------
def points_in_rect(xs, ys, rect) -> List[int]:
    """Indices ``i`` with ``rect.contains_point((xs[i], ys[i]))`` (closed)."""
    if is_ndarray(xs):
        mask = (
            (xs >= rect.x1) & (xs <= rect.x2)
            & (ys >= rect.y1) & (ys <= rect.y2)
        )
        return _np.flatnonzero(mask).tolist()
    x1, y1, x2, y2 = rect.x1, rect.y1, rect.x2, rect.y2
    return [
        i
        for i in range(len(xs))
        if x1 <= xs[i] <= x2 and y1 <= ys[i] <= y2
    ]


def rects_intersect(x1s, y1s, x2s, y2s, rect) -> List[int]:
    """Indices of rectangles intersecting ``rect`` (closed semantics)."""
    if is_ndarray(x1s):
        mask = (
            (x1s <= rect.x2) & (x2s >= rect.x1)
            & (y1s <= rect.y2) & (y2s >= rect.y1)
        )
        return _np.flatnonzero(mask).tolist()
    qx1, qy1, qx2, qy2 = rect.x1, rect.y1, rect.x2, rect.y2
    return [
        i
        for i in range(len(x1s))
        if x1s[i] <= qx2 and qx1 <= x2s[i]
        and y1s[i] <= qy2 and qy1 <= y2s[i]
    ]


def points_in_rect_owned(xs, ys, rect, cell) -> List[int]:
    """Range filter + reference-point ownership for point records.

    The reference point of a point record is ``(max(x, rect.x1),
    max(y, rect.y1))``; ownership is the half-open containment test of
    :meth:`Rectangle.contains_point_left_inclusive` against ``cell``.
    """
    if is_ndarray(xs):
        rx = _np.maximum(xs, rect.x1)
        ry = _np.maximum(ys, rect.y1)
        mask = (
            (xs >= rect.x1) & (xs <= rect.x2)
            & (ys >= rect.y1) & (ys <= rect.y2)
            & (rx >= cell.x1) & (rx < cell.x2)
            & (ry >= cell.y1) & (ry < cell.y2)
        )
        return _np.flatnonzero(mask).tolist()
    out = []
    qx1, qy1, qx2, qy2 = rect.x1, rect.y1, rect.x2, rect.y2
    cx1, cy1, cx2, cy2 = cell.x1, cell.y1, cell.x2, cell.y2
    for i in range(len(xs)):
        x = xs[i]
        y = ys[i]
        if not (qx1 <= x <= qx2 and qy1 <= y <= qy2):
            continue
        rx = x if x > qx1 else qx1
        ry = y if y > qy1 else qy1
        if cx1 <= rx < cx2 and cy1 <= ry < cy2:
            out.append(i)
    return out


def rects_intersect_owned(x1s, y1s, x2s, y2s, rect, cell) -> List[int]:
    """Range filter + reference-point ownership for rectangle records."""
    if is_ndarray(x1s):
        rx = _np.maximum(x1s, rect.x1)
        ry = _np.maximum(y1s, rect.y1)
        mask = (
            (x1s <= rect.x2) & (x2s >= rect.x1)
            & (y1s <= rect.y2) & (y2s >= rect.y1)
            & (rx >= cell.x1) & (rx < cell.x2)
            & (ry >= cell.y1) & (ry < cell.y2)
        )
        return _np.flatnonzero(mask).tolist()
    out = []
    qx1, qy1, qx2, qy2 = rect.x1, rect.y1, rect.x2, rect.y2
    cx1, cy1, cx2, cy2 = cell.x1, cell.y1, cell.x2, cell.y2
    for i in range(len(x1s)):
        if not (
            x1s[i] <= qx2 and qx1 <= x2s[i]
            and y1s[i] <= qy2 and qy1 <= y2s[i]
        ):
            continue
        rx = x1s[i] if x1s[i] > qx1 else qx1
        ry = y1s[i] if y1s[i] > qy1 else qy1
        if cx1 <= rx < cx2 and cy1 <= ry < cy2:
            out.append(i)
    return out


# ----------------------------------------------------------------------
# Distance kernels (squared distances only: exact, rankable)
# ----------------------------------------------------------------------
def point_distance_sq(xs, ys, px: float, py: float):
    """Squared distance from every ``(xs[i], ys[i])`` to ``(px, py)``.

    Elementwise ``dx*dx + dy*dy``: identical rounding to the scalar
    :meth:`Point.distance_sq` / degenerate-MBR distance.
    """
    if is_ndarray(xs):
        dx = xs - px
        dy = ys - py
        return dx * dx + dy * dy
    out = []
    append = out.append
    for i in range(len(xs)):
        dx = xs[i] - px
        dy = ys[i] - py
        append(dx * dx + dy * dy)
    return out


def rect_min_distance_sq(x1s, y1s, x2s, y2s, px: float, py: float):
    """Squared minimum distance from ``(px, py)`` to every rectangle.

    Matches :meth:`Rectangle.min_distance_sq_point` exactly: the clamped
    axis gaps ``max(x1 - px, 0, px - x2)`` are computed with the same
    comparisons, and ``(-0.0)**2 == 0.0`` erases any signed-zero
    difference between ``max`` implementations.
    """
    if is_ndarray(x1s):
        dx = _np.maximum(_np.maximum(x1s - px, 0.0), px - x2s)
        dy = _np.maximum(_np.maximum(y1s - py, 0.0), py - y2s)
        return dx * dx + dy * dy
    out = []
    append = out.append
    for i in range(len(x1s)):
        dx = max(x1s[i] - px, 0.0, px - x2s[i])
        dy = max(y1s[i] - py, 0.0, py - y2s[i])
        append(dx * dx + dy * dy)
    return out


def topk_by_distance(dsq, k: int) -> List[int]:
    """Indices of the ``k`` smallest ``(dsq[i], i)`` pairs, in that order.

    Ties on the squared distance break by index — exactly the order a
    scalar loop that keeps the *first* seen of equal-distance records
    produces. A stable full argsort (not argpartition, whose tie handling
    is arbitrary) keeps the selected *set* deterministic.
    """
    if k <= 0:
        return []
    if is_ndarray(dsq):
        order = _np.argsort(dsq, kind="stable")
        return order[:k].tolist()
    return sorted(range(len(dsq)), key=lambda i: (dsq[i], i))[:k]


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
    owner = _np.arange(len(lo)).repeat(counts)
    first = counts.cumsum() - counts
    return owner, lo[owner] + _np.arange(len(owner)) - first[owner]


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

    Returns two int columns, ascending by ``(left row, right row)`` on
    both backends. NumPy: both sides are ordered by ``x1``; a pair whose
    left rectangle starts first (or level) is found in the window of
    right rows with ``l.x1 <= r.x1 <= l.x2``, any other pair in the
    window of left rows with ``r.x1 < l.x1 <= r.x2`` — each once — and
    one mask keeps the candidates that also overlap in y. ``array('d')``
    columns sweep the same windows row by row.
    """
    lx1, ly1, lx2, ly2 = left
    rx1, ry1, rx2, ry2 = right
    if not is_ndarray(lx1):
        return _join_rows_sweep(left, right)
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
    found = [_np.empty((2, 0), dtype=_np.intp)]
    for i, j in candidates:
        keep = (ly1[i] <= ry2[j]) & (ry1[j] <= ly2[i])
        found.append((i[keep], j[keep]))
    li, ri = _np.concatenate(found, axis=1)
    order = _np.lexsort((ri, li))
    return li[order], ri[order]


def _join_rows_sweep(left: Columns, right: Columns):
    """:func:`join_rows` one row at a time: the same two windows, found
    by bisection, swept in Python."""
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


def pairs_owned(left: Columns, right: Columns, li, ri, cell):
    """The pairs ``(li[t], ri[t])`` whose reference point ``cell`` owns.

    The reference point of a pair is the bottom-left corner of the two
    MBRs' intersection, ``(max(x1), max(y1))``; ``cell`` owns it under
    the half-open test of :meth:`Rectangle.contains_point_left_inclusive`.
    Returns the surviving ``(li, ri)``, order kept.
    """
    lx1, ly1 = left[0], left[1]
    rx1, ry1 = right[0], right[1]
    if is_ndarray(lx1):
        px = _np.maximum(lx1[li], rx1[ri])
        py = _np.maximum(ly1[li], ry1[ri])
        keep = (
            (px >= cell.x1) & (px < cell.x2)
            & (py >= cell.y1) & (py < cell.y2)
        )
        return li[keep], ri[keep]
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
    if not is_ndarray(qx) or not cell_columns:
        return _knn_rows_loop(qx, qy, cell_mbrs, cell_columns, k)
    n = len(qx)
    bases = _np.cumsum([0] + [len(cols[0]) for cols in cell_columns])
    visits = _np.zeros(len(cell_columns), dtype=_np.intp)
    best_dsq = _np.full((n, k), _np.inf)
    best_row = _np.full((n, k), -1, dtype=_np.intp)
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
        _np.concatenate([cols[c] for cols in cell_columns])[best]
        for c in range(4)
    )
    flat = list(map(
        math.hypot,
        _np.maximum(_np.maximum(x1 - px, 0.0), px - x2).ravel().tolist(),
        _np.maximum(_np.maximum(y1 - py, 0.0), py - y2).ravel().tolist(),
    ))
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
    active = _np.arange(n)
    cell_dsq = cell_dsq[active[:, None], order]
    for step in range(order.shape[1]):
        active = active[cell_dsq[active, step] <= best_dsq[active, k - 1]]
        if not active.size:
            break
        visiting = order[active, step]
        for cell in _np.unique(visiting).tolist():
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
    kth = _np.partition(tile, last, axis=1)[:, last:last + 1]
    query, col = _np.nonzero(tile <= kth)
    # Earlier finds come first and this cell's candidates follow in row
    # order, so the stable sort by (query, distance) ranks equal
    # distances by (visit order, S row).
    queries = _np.arange(len(rows))
    who = _np.concatenate((queries.repeat(k), query))
    dsq = _np.concatenate((best_dsq[rows].ravel(), tile[query, col]))
    row = _np.concatenate((best_row[rows].ravel(), col + base))
    ranked = _np.lexsort((dsq, who))
    top = ranked[who[ranked].searchsorted(queries)[:, None] + _np.arange(k)]
    best_dsq[rows] = dsq[top]
    best_row[rows] = row[top]


def _knn_rows_loop(qx, qy, cell_mbrs, cell_columns, k: int):
    """:func:`knn_rows` one query at a time (``array('d')`` columns)."""
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
    """Rows closer than ``delta`` to one of the four sides of ``cell``."""
    if is_ndarray(xs):
        mask = (
            (xs - cell.x1 < delta) | (cell.x2 - xs < delta)
            | (ys - cell.y1 < delta) | (cell.y2 - ys < delta)
        )
        return _np.flatnonzero(mask).tolist()
    x1, y1, x2, y2 = cell.x1, cell.y1, cell.x2, cell.y2
    return [
        i
        for i in range(len(xs))
        if xs[i] - x1 < delta or x2 - xs[i] < delta
        or ys[i] - y1 < delta or y2 - ys[i] < delta
    ]


def closest_pair_rows(xs, ys) -> Optional[Tuple[int, int]]:
    """Two rows at the minimum squared distance, or None for < 2 rows.

    NumPy: with the rows ordered by ``(x, y)``, row ``i`` is compared
    with row ``i + s`` for ``s = 1, 2, ...``; once the smallest x-gap at
    a shift, squared, reaches the best squared distance no later shift
    can win. Duplicates are adjacent in that order, so they end the
    sweep at distance 0 after the first shift. Inputs that keep the sweep
    alive past 4 sqrt(n) shifts (many rows sharing an x; by then it has
    cost about what the alternative does) go to the divide and conquer,
    which is also the ``array('d')`` branch and is O(n log n) on any
    input. Which of several equally close pairs is returned may differ
    between the two; the distance does not.
    """
    n = len(xs)
    if n < 2:
        return None
    if not is_ndarray(xs):
        return _closest_pair_divide(xs, ys)
    order = _np.lexsort((ys, xs))
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
    answer as they are. Otherwise Andrew's monotone chain runs over the
    rows with the cross product the hull always used, so collinear
    boundary points are dropped, and vertices within ``EPS`` of their
    neighbour collapse (a sliver is not a polygon). NumPy: an
    Akl-Toussaint octagon first drops the rows strictly inside the
    polygon of the extreme rows in eight directions, by more than a
    rounding bound, so a row within rounding of the hull still reaches
    the chain.
    """
    if is_ndarray(xs):
        order = _np.lexsort((ys, xs))
        sx, sy = xs[order], ys[order]
        keep = _np.ones(len(order), dtype=bool)
        keep[1:] = (sx[1:] != sx[:-1]) | (sy[1:] != sy[:-1])  # first of equals
        if keep.sum() > 2:
            keep[keep] = ~_octagon_interior(sx[keep], sy[keep])
        rows, sx, sy = order[keep].tolist(), sx[keep].tolist(), sy[keep].tolist()
    else:
        first = {(xs[i], ys[i]): i for i in reversed(range(len(xs)))}
        rows = [first[point] for point in sorted(first)]
        sx, sy = [xs[i] for i in rows], [ys[i] for i in rows]
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
    inside = _np.ones(len(sx), dtype=bool)
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
