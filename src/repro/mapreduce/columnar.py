"""Columnar payloads for sealed blocks, and the one codec for block bytes.

A sealed block whose records are homogeneously :class:`Point` or
:class:`Rectangle` gets a :class:`ColumnarPayload`: the coordinates
transposed into flat float64 NumPy columns. A block of
:class:`~repro.geometry.feature.Feature` records over such shapes gets the
same geometry columns plus one attribute column, the per-row attribute
dicts, so Pigeon relations take every path bare shapes take.

Every byte form of a block body goes through one codec here:
:func:`encode` turns a body into ``(header, buffers)`` and :func:`decode`
turns them back, and :func:`crc` is the one CRC-32, over the header and
then each buffer in turn, never joined into one copy. A body is one of:

* a :class:`ColumnarPayload` -- header ``"<kind>:<count>"``, one buffer
  per geometry column, plus the attribute column pickled by value;
* a plain C-contiguous numeric array -- header
  ``"array:<dtype>:<shape>"``, the array's own buffer;
* any other record list (polygons, tuples, mixed shapes) -- header
  ``"records"``, the list pickled by value. Records that do not pickle
  at all (driver-only test doubles) are checksummed over their ``repr``
  (header ``"repr"``), which does not decode.

"By value" means the pickler's memo is off, so the bytes depend only on
the values: a reloaded workspace shares objects its writer did not (one
character strings come back as the interpreter's cached singletons), and
still verifies. Sealing and ``fsck`` checksum a block as
``crc(*encode(body))``. Pickling a payload (:meth:`ColumnarPayload.
__reduce_ex__`) and the checkpoint journal's arrays go through
:func:`pickled`: ``decode(header, *buffers)``, with the buffers in band
as :class:`pickle.PickleBuffer` at protocol 5 (workspaces, the journal)
and as ``bytes`` below it (the pool's ``ForkingPickler`` runs at
protocol 4). The payload is a sealed block's only body: a
:class:`~repro.mapreduce.fs.Block` pickles without its records, and
rebuilds them (Features, for a Feature payload) from the columns only
when something reads them.

Blocks with mixed or exotic record types (polygons, ``Feature``
subclasses, Features over mixed shapes), with coordinates that are not
all ``float``, or with attributes that do not pickle by value get no
payload (:func:`ColumnarPayload.from_records` returns None) and every
consumer falls back to the scalar path.
"""

from __future__ import annotations

import io
import pickle
import zlib
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.feature import Feature
from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle

#: Column names per payload kind, in buffer order.
KIND_COLUMNS = {
    "point": ("x", "y"),
    "rect": ("x1", "y1", "x2", "y2"),
}

#: Protocol of the by-value pickles: fixed, so a CRC does not move with
#: the interpreter's default protocol.
_BY_VALUE_PROTOCOL = 5

_profiler = None


def _phase(name: str):
    """Profiler phase scope, lazily bound.

    ``repro.observe.profile`` cannot be imported at module top: this
    module is reached from ``repro.mapreduce.__init__``, and the observe
    package initializer imports back into mapreduce. The profiler scope
    is a no-op unless a profiled task is in flight.
    """
    global _profiler
    if _profiler is None:
        from repro.observe import profile

        _profiler = profile
    return _profiler.phase(name)


def _column(values: List[float]):
    # fromiter with a known count beats np.array on a list of floats.
    return np.fromiter(values, dtype=np.float64, count=len(values))


class ColumnarPayload:
    """Flat float64 columns for one block's records.

    ``kind`` is ``"point"`` (columns x, y) or ``"rect"`` (columns x1, y1,
    x2, y2); ``count`` is the record count. Columns are owned arrays or
    zero-copy views over decoded buffers. ``attributes`` is None for
    bare shapes; for Features it is the list of per-row attribute dicts
    (at seal time the records' own dicts, not copies), and the columns
    hold the Features' shapes.

    The attribute column is pickled by value once, when the payload is
    first encoded (or checked by :meth:`from_records`), and those bytes
    are what every later checksum and pickle of the payload carries: the
    body as sealed. ``fsck`` checks the body as it stands
    (:meth:`current`), so a dict mutated in place after the seal is
    damage it reports. A decoded payload keeps the bytes and unpickles
    them on first use of ``attributes``.
    """

    __slots__ = ("kind", "count", "columns", "_attributes", "_attribute_bytes")

    def __init__(
        self,
        kind: str,
        count: int,
        columns: Tuple[Any, ...],
        attributes: Optional[List[Any]] = None,
    ):
        self.kind = kind
        self.count = count
        self.columns = columns
        self._attributes = attributes
        #: The attribute column pickled by value, once encoded.
        self._attribute_bytes = None

    @property
    def attributes(self) -> Optional[List[Any]]:
        if self._attributes is None and self._attribute_bytes is not None:
            self._attributes = pickle.loads(self._attribute_bytes)
        return self._attributes

    @property
    def has_attributes(self) -> bool:
        """Whether this is a Feature payload (without decoding it)."""
        return self._attribute_bytes is not None or self._attributes is not None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_records(cls, records: Sequence[Any]) -> Optional["ColumnarPayload"]:
        """Transpose a homogeneous Point/Rectangle list; None otherwise.

        A list of Features whose shapes are all Points or all Rectangles
        transposes the same way, plus an attribute column.

        Exact type checks (no subclasses): a subclass could carry extra
        state the columns would silently drop. Every coordinate must be a
        ``float`` too: records rebuilt from the columns (on a pool worker,
        or from a checkpoint) hold floats, so an ``int`` coordinate would
        come back with another type and another ``repr``. Attributes must
        pickle by value: the codec carries them so.
        """
        n = len(records)
        if n == 0:
            return None
        # One C-speed pass for the homogeneity check (set(map(type, ..))
        # beats a genexpr any() several-fold on large lists), then one
        # listcomp per column — generator feeding costs a frame switch
        # per item, which dominates at bulk sizes.
        kinds = set(map(type, records))
        attributes = None
        if kinds == {Feature}:
            attributes = [r.attributes for r in records]
            records = [r.shape for r in records]
            kinds = set(map(type, records))
        if kinds == {Point}:
            kind = "point"
            columns = ([r.x for r in records], [r.y for r in records])
        elif kinds == {Rectangle}:
            kind = "rect"
            columns = (
                [r.x1 for r in records],
                [r.y1 for r in records],
                [r.x2 for r in records],
                [r.y2 for r in records],
            )
        else:
            return None
        if any(set(map(type, column)) != {float} for column in columns):
            return None
        payload = cls(kind, n, tuple(map(_column, columns)), attributes)
        if attributes is not None:
            try:
                # The one pickle of the attribute column: the seal's
                # checksum and every later pickle reuse these bytes.
                payload._attribute_bytes = _by_value(attributes)
            except Exception:
                # Unpicklable or cyclic attributes: the record path,
                # whose repr fallback copes with them.
                return None
        return payload

    def current(self) -> "ColumnarPayload":
        """This payload as it stands in memory: itself, or, once its
        attribute dicts are decoded, a payload over the same columns and
        dicts whose attribute bytes are taken anew on encode."""
        if self._attributes is None:
            return self
        return ColumnarPayload(self.kind, self.count, self.columns,
                               self._attributes)

    def __reduce_ex__(self, protocol):
        return pickled(self, protocol)

    @property
    def nbytes(self) -> int:
        """Bytes of the geometry columns."""
        return sum(col.nbytes for col in self.columns)

    def checksum(self) -> int:
        """The codec's CRC of this payload (see :func:`crc`)."""
        return crc(*encode(self))

    # ------------------------------------------------------------------
    # Record views
    # ------------------------------------------------------------------
    def materialize(self) -> List[Any]:
        """Rebuild the record objects, in order.

        Coordinates go through ``float()`` so the records hold plain
        floats (``np.float64`` attributes would leak into answers and
        print differently than the scalar path). A Feature payload
        rebuilds ``Feature(shape, attributes)`` rows.
        """
        with _phase("columnar-decode"):
            if self.kind == "point":
                xs, ys = self.columns
                shapes = [
                    Point(float(xs[i]), float(ys[i]))
                    for i in range(self.count)
                ]
            else:
                x1s, y1s, x2s, y2s = self.columns
                shapes = [
                    Rectangle(
                        float(x1s[i]), float(y1s[i]),
                        float(x2s[i]), float(y2s[i]),
                    )
                    for i in range(self.count)
                ]
            if self.attributes is None:
                return shapes
            return list(map(Feature, shapes, self.attributes))

    def mbr_columns(self) -> Tuple[Any, Any, Any, Any]:
        """The records' MBRs as ``x1, y1, x2, y2`` columns (no copies)."""
        if self.kind == "point":
            xs, ys = self.columns
            return xs, ys, xs, ys
        return self.columns


# ----------------------------------------------------------------------
# The codec
# ----------------------------------------------------------------------
def _by_value(obj: Any) -> bytes:
    """``obj`` pickled with the memo off: equal values give equal bytes.

    Cyclic or unpicklable objects raise.
    """
    stream = io.BytesIO()
    pickler = pickle.Pickler(stream, protocol=_BY_VALUE_PROTOCOL)
    pickler.fast = True
    pickler.dump(obj)
    return stream.getvalue()


def encode(body: Any) -> Tuple[str, tuple]:
    """``(header, buffers)`` of a block body (see the module docstring).

    The buffers are the payload's own columns and the array itself, not
    copies; a payload's attribute column is pickled on its first encode
    only.
    """
    if type(body) is ColumnarPayload:
        header = f"{body.kind}:{body.count}"
        if body._attribute_bytes is None:
            if body._attributes is None:
                return header, body.columns
            body._attribute_bytes = _by_value(body._attributes)
        return header, (*body.columns, body._attribute_bytes)
    if type(body) is np.ndarray:
        shape = ",".join(map(str, body.shape))
        return f"array:{body.dtype.str}:{shape}", (body,)
    try:
        return "records", (_by_value(body),)
    except Exception:
        return "repr", (repr(body).encode("utf-8", "replace"),)


def decode(header: str, *buffers: Any) -> Any:
    """The body that :func:`encode` turned into ``header`` and ``buffers``.

    Columns and arrays are zero-copy views over the buffers, writable
    when the buffer is (a ``bytearray``).
    """
    kind, _, rest = header.partition(":")
    if kind == "records":
        return pickle.loads(buffers[0])
    if kind == "array":
        dtype, _, shape = rest.partition(":")
        return np.frombuffer(buffers[0], dtype).reshape(
            [int(n) for n in shape.split(",") if n]
        )
    count, width = int(rest), len(KIND_COLUMNS[kind])
    columns = tuple(np.frombuffer(b, np.float64, count) for b in buffers[:width])
    payload = ColumnarPayload(kind, count, columns)
    if len(buffers) > width:
        payload._attribute_bytes = buffers[width]
    return payload


def crc(header: str, buffers: Sequence[Any]) -> int:
    """CRC-32 of ``header`` and then each buffer, without joining them."""
    value = zlib.crc32(header.encode("ascii"))
    for buffer in buffers:
        value = zlib.crc32(buffer, value)
    return value


def pickled(body: Any, protocol: int) -> tuple:
    """The reduce tuple that pickles ``body`` through the codec.

    At protocol 5 the buffers go in band as :class:`pickle.PickleBuffer`,
    written without an intermediate copy; below it (the pool's
    ``ForkingPickler``) as ``bytes`` (through a memoryview: ``bytes()`` of
    a 0-d integer array would be that many zero bytes).
    """
    header, buffers = encode(body)
    if protocol >= 5:
        return decode, (header, *map(pickle.PickleBuffer, buffers))
    return decode, (header, *(memoryview(b).tobytes() for b in buffers))
