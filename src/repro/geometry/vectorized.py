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

The ``REPRO_VECTORIZE`` environment variable (default on) is read
dynamically on every call, so tests can flip modes without rebuilding
state; ``REPRO_VECTORIZE=0`` forces every caller back onto its scalar
oracle path.
"""

from __future__ import annotations

import os
from array import array
from typing import List, Optional, Sequence

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
