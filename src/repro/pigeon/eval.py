"""Expression evaluation over records.

Evaluates Pigeon expressions against one record: a :class:`Feature` (shape
plus attributes) or a bare shape. The identifier ``geom`` resolves to the
record's shape; other identifiers resolve to feature attributes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.geometry.feature import Feature
from repro.geometry import Point, Rectangle
from repro.pigeon import ast


class PigeonEvalError(ValueError):
    """Raised when an expression cannot be evaluated against a record."""


def _shape_of(record: Any) -> Any:
    return record.shape if isinstance(record, Feature) else record


def _as_mbr(value: Any) -> Rectangle:
    if isinstance(value, Rectangle):
        return value
    mbr = getattr(value, "mbr", None)
    if mbr is None:
        raise PigeonEvalError(f"expected a shape, found {value!r}")
    return mbr


def _fn_makebox(x1, y1, x2, y2):
    return Rectangle(float(x1), float(y1), float(x2), float(y2))


def _fn_makepoint(x, y):
    return Point(float(x), float(y))


def _fn_overlaps(a, b):
    return _as_mbr(a).intersects(_as_mbr(b))


def _fn_contains(a, b):
    return _as_mbr(a).contains_rect(_as_mbr(b))


def _fn_distance(a, b):
    mbr_b = _as_mbr(b)
    return _as_mbr(a).min_distance_point(mbr_b.center)


def _fn_area(a):
    shape = a
    area = getattr(shape, "area", None)
    if area is None:
        area = _as_mbr(shape).area
    return float(area)


def _fn_x(a):
    if isinstance(a, Point):
        return a.x
    return _as_mbr(a).center.x


def _fn_y(a):
    if isinstance(a, Point):
        return a.y
    return _as_mbr(a).center.y


#: Built-in spatial functions, by upper-cased name.
FUNCTIONS: Dict[str, Callable[..., Any]] = {
    "MAKEBOX": _fn_makebox,
    "MAKEPOINT": _fn_makepoint,
    "OVERLAPS": _fn_overlaps,
    "CONTAINS": _fn_contains,
    "DISTANCE": _fn_distance,
    "AREA": _fn_area,
    "X": _fn_x,
    "Y": _fn_y,
}


def evaluate(expr: ast.Expr, record: Any) -> Any:
    """Evaluate ``expr`` against one record."""
    if isinstance(expr, ast.Literal):
        return expr.value
    if isinstance(expr, ast.Identifier):
        if expr.name == "geom":
            return _shape_of(record)
        if isinstance(record, Feature):
            try:
                return record[expr.name]
            except KeyError:
                raise PigeonEvalError(
                    f"record has no attribute {expr.name!r}"
                ) from None
        raise PigeonEvalError(
            f"cannot resolve {expr.name!r} on a bare shape record"
        )
    if isinstance(expr, ast.UnaryOp):
        value = evaluate(expr.operand, record)
        if expr.op == "-":
            return -value
        if expr.op == "NOT":
            return not value
        raise PigeonEvalError(f"unknown unary operator {expr.op!r}")
    if isinstance(expr, ast.BinaryOp):
        return _binary(expr, record)
    if isinstance(expr, ast.FunctionCall):
        fn = FUNCTIONS.get(expr.name)
        if fn is None:
            raise PigeonEvalError(f"unknown function {expr.name!r}")
        args = [evaluate(a, record) for a in expr.args]
        return fn(*args)
    raise PigeonEvalError(f"unknown expression node {expr!r}")


def _binary(expr: ast.BinaryOp, record: Any) -> Any:
    op = expr.op
    if op == "AND":
        return bool(evaluate(expr.left, record)) and bool(
            evaluate(expr.right, record)
        )
    if op == "OR":
        return bool(evaluate(expr.left, record)) or bool(
            evaluate(expr.right, record)
        )
    left = evaluate(expr.left, record)
    right = evaluate(expr.right, record)
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        return left / right
    if op == "==":
        return left == right
    if op == "!=":
        return left != right
    if op == "<":
        return left < right
    if op == "<=":
        return left <= right
    if op == ">":
        return left > right
    if op == ">=":
        return left >= right
    raise PigeonEvalError(f"unknown operator {op!r}")


def constant_fold(expr: ast.Expr) -> Any:
    """Evaluate a record-independent expression, or raise.

    Used by the planner to recognise constant query windows (e.g.
    ``MakeBox(0, 0, 10, 10)``) so that indexed operations can be used.
    """
    marker = object()
    return evaluate(expr, marker)


def constant_overlap_window(predicate: ast.Expr) -> Optional[Rectangle]:
    """Detect ``Overlaps(geom, <constant>)`` and return the window MBR.

    The pattern that makes a FILTER index-accelerable: one side of the
    Overlaps call is the record's geometry, the other folds to a constant
    shape. Shared by the Pigeon planner (which compiles such FILTERs to
    the indexed range query) and EXPLAIN (which reports that choice
    without executing anything). Returns ``None`` when the predicate does
    not match the pattern.
    """
    if not (
        isinstance(predicate, ast.FunctionCall)
        and predicate.name == "OVERLAPS"
        and len(predicate.args) == 2
    ):
        return None
    a, b = predicate.args
    if isinstance(a, ast.Identifier) and a.name == "geom":
        window_expr = b
    elif isinstance(b, ast.Identifier) and b.name == "geom":
        window_expr = a
    else:
        return None
    if references_record(window_expr):
        return None
    try:
        value = constant_fold(window_expr)
    except PigeonEvalError:
        return None
    if isinstance(value, Rectangle):
        return value
    return getattr(value, "mbr", None)


def references_record(expr: ast.Expr) -> bool:
    """True when ``expr`` reads the record (any identifier)."""
    if isinstance(expr, ast.Identifier):
        return True
    if isinstance(expr, ast.UnaryOp):
        return references_record(expr.operand)
    if isinstance(expr, ast.BinaryOp):
        return references_record(expr.left) or references_record(expr.right)
    if isinstance(expr, ast.FunctionCall):
        return any(references_record(a) for a in expr.args)
    return False
