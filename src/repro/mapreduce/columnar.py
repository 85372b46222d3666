"""Columnar payloads for sealed blocks, and the block wire format.

A sealed block whose records are homogeneously :class:`Point` or
:class:`Rectangle` gets a :class:`ColumnarPayload`: the coordinates
transposed into flat float64 NumPy columns. A block of
:class:`~repro.geometry.feature.Feature` records over such shapes gets the
same geometry columns plus one attribute column, the per-row attribute
dicts, so Pigeon relations take every path bare shapes take. The payload
serves three masters:

* **Batch kernels** — ``repro.geometry.vectorized`` filters a whole block
  with one mask instead of one Python call per record.
* **Durability** — :func:`block_payload_checksum` CRCs the raw column
  bytes (with a small header), so checksums cover the columnar bytes
  directly and are independent of pickle details (any float64 buffer of
  the same coordinates has the same bytes). A Feature payload adds the
  CRC of its pickled attribute column.
* **Dispatch** — a block crossing to a pool worker travels as its
  columns: the reducer registered here on ``multiprocessing``'s
  ``ForkingPickler`` (the pickler the process pool uses) replaces it
  with a :class:`ColumnBlock`, which rebuilds records (Features, for a
  Feature payload) and the local index on the worker only when a map
  function asks for them.
  Workspaces and checkpoints use plain :mod:`pickle` and still store
  the whole :class:`~repro.mapreduce.fs.Block`.

Blocks with mixed or exotic record types (polygons, ``Feature``
subclasses, Features over mixed shapes), with coordinates that are not
all ``float``, or with attributes that do not pickle simply get no
payload (:func:`ColumnarPayload.from_records` returns None) and every
consumer falls back to the scalar path.
"""

from __future__ import annotations

import io
import pickle
import zlib
from multiprocessing.reduction import ForkingPickler
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry import vectorized
from repro.geometry.feature import Feature
from repro.geometry.point import Point
from repro.geometry.rectangle import Rectangle
from repro.mapreduce.fs import Block
from repro.mapreduce.storage import checksum_records

#: Column names per payload kind, in buffer order.
KIND_COLUMNS = {
    "point": ("x", "y"),
    "rect": ("x1", "y1", "x2", "y2"),
}

_FLOAT_SIZE = 8

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
    zero-copy views over an external buffer. ``attributes`` is None for
    bare shapes; for Features it is the list of per-row attribute dicts
    (the records' own dicts, not copies), and the columns hold the
    Features' shapes.
    """

    __slots__ = ("kind", "count", "columns", "attributes", "_attributes_crc")

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
        self.attributes = attributes
        #: CRC-32 of the pickled attribute column, once computed.
        self._attributes_crc: Optional[int] = None

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
        pickle: the checksum covers their pickled bytes.
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
                payload._attributes_crc = _value_crc(attributes)
            except Exception:
                # Unpicklable or cyclic attributes: the record path, whose
                # checksum_records copes with them.
                return None
        return payload

    @classmethod
    def from_buffer(
        cls, kind: str, count: int, buf, offset: int = 0
    ) -> "ColumnarPayload":
        """Zero-copy payload over ``buf`` (columns laid out consecutively)."""
        cols = tuple(
            np.frombuffer(
                buf,
                dtype=np.float64,
                count=count,
                offset=offset + i * count * _FLOAT_SIZE,
            )
            for i in range(len(KIND_COLUMNS[kind]))
        )
        return cls(kind, count, cols)

    @classmethod
    def _from_portable(
        cls, kind: str, count: int, raw: bytes, attributes: Optional[list]
    ) -> "ColumnarPayload":
        payload = cls.from_buffer(kind, count, raw)
        # Rehydrate into owned columns so the pickled copy does not pin
        # the transport bytes (and stays writable-agnostic).
        payload.columns = tuple(c.copy() for c in payload.columns)
        payload.attributes = attributes
        return payload

    def __reduce__(self):
        # Portable pickle: raw bytes, independent of NumPy's pickle format;
        # the attribute column travels as the list it is.
        return (
            ColumnarPayload._from_portable,
            (self.kind, self.count, self.tobytes(), self.attributes),
        )

    # ------------------------------------------------------------------
    # Bytes / durability
    # ------------------------------------------------------------------
    @property
    def nbytes(self) -> int:
        """Bytes of the geometry columns."""
        return self.count * _FLOAT_SIZE * len(self.columns)

    def tobytes(self) -> bytes:
        return b"".join(col.tobytes() for col in self.columns)

    def checksum(self) -> int:
        """CRC-32 over a kind/count header plus the raw column bytes.

        A Feature payload folds in the CRC of its pickled attribute
        column, taken once: :meth:`from_records` computes it while it
        checks that the attributes pickle, so sealing pickles them once.
        """
        crc = zlib.crc32(f"{self.kind}:{self.count}".encode("ascii"))
        for col in self.columns:
            crc = zlib.crc32(col.tobytes(), crc)
        if self.attributes is not None:
            if self._attributes_crc is None:
                self._attributes_crc = _value_crc(self.attributes)
            crc = zlib.crc32(self._attributes_crc.to_bytes(4, "little"), crc)
        return crc

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

    # ------------------------------------------------------------------
    # Kernel dispatch
    # ------------------------------------------------------------------
    def indices_in(self, rect: Rectangle) -> List[int]:
        """Record indices whose shape MBR intersects ``rect``, in order."""
        with _phase("kernel"):
            if self.kind == "point":
                xs, ys = self.columns
                return vectorized.points_in_rect(xs, ys, rect)
            return vectorized.rects_intersect(*self.columns, rect)

    def indices_owned_in(self, rect: Rectangle, cell: Rectangle) -> List[int]:
        """Like :meth:`indices_in` plus reference-point dedup vs ``cell``."""
        with _phase("kernel"):
            if self.kind == "point":
                xs, ys = self.columns
                return vectorized.points_in_rect_owned(xs, ys, rect, cell)
            return vectorized.rects_intersect_owned(*self.columns, rect, cell)


def _value_crc(obj: Any) -> int:
    """CRC-32 of ``obj`` pickled by value.

    The pickler's memo is off (``fast``), so the bytes depend on the
    values only, not on which equal objects happen to be shared: an
    unpickled workspace shares objects its writer did not (one-character
    strings come back as the interpreter's cached singletons), and must
    still verify. Cyclic or unpicklable attributes raise, and get no
    payload.
    """
    buf = io.BytesIO()
    pickler = pickle.Pickler(buf, protocol=4)
    pickler.fast = True
    pickler.dump(obj)
    return zlib.crc32(buf.getbuffer())


def payload_of(block, expected_count: Optional[int] = None):
    """The block's usable columnar payload, or None.

    None when the block has no payload (records other than homogeneous
    points or rectangles, bare or as Features), or when the payload has
    gone stale relative to the record list it was sealed over.
    """
    payload = block.columnar
    if payload is None:
        return None
    if expected_count is not None and payload.count != expected_count:
        return None
    return payload


def block_payload_checksum(block) -> int:
    """The checksum a block's payload should carry.

    Columnarizable records are checksummed over their raw column bytes
    and, for Features, their attribute column (rebuilt fresh, so in-place
    mutation is detected); everything else falls back to the
    pickle-based record checksum.
    """
    payload = ColumnarPayload.from_records(block.records)
    if payload is not None:
        return payload.checksum()
    return checksum_records(block.records)


class ColumnBlock:
    """A sealed :class:`Block` as a pool worker receives it.

    Carries the block's columnar payload, its metadata without the local
    R-tree, and the tree's node capacity (None when the block has no
    local index). ``records`` materializes the record objects from the
    columns on first use. ``metadata`` packs the local index on first
    use: the block's rows are stored in packed order, so packing the
    columns gives back the sealed tree, array for array.
    """

    __slots__ = (
        "columnar", "index_capacity", "_base_metadata", "_records",
        "_metadata",
    )

    def __init__(
        self,
        columnar: ColumnarPayload,
        base_metadata: dict,
        index_capacity: Optional[int],
    ):
        self.columnar = columnar
        self.index_capacity = index_capacity
        self._base_metadata = base_metadata
        self._records = None
        self._metadata = None

    def __len__(self) -> int:
        return self.columnar.count

    def __iter__(self):
        return iter(self.records)

    @property
    def records(self) -> List[Any]:
        records = self._records
        if records is None:
            records = self._records = self.columnar.materialize()
        return records

    @property
    def metadata(self) -> dict:
        metadata = self._metadata
        if metadata is None:
            metadata = self._metadata = dict(self._base_metadata)
            if self.index_capacity is not None:
                from repro.index.rtree import RTree

                metadata["local_index"] = RTree.from_columns(
                    *self.columnar.mbr_columns(),
                    node_capacity=self.index_capacity,
                )
        return metadata


def _reduce_block(block: Block):
    """Pickle ``block`` for a pool worker: as a :class:`ColumnBlock` when
    it has a usable payload, otherwise exactly as plain pickle would."""
    payload = payload_of(block, len(block.records))
    if payload is None:
        return block.__reduce_ex__(pickle.DEFAULT_PROTOCOL)
    metadata = dict(block.metadata)
    local_index = metadata.pop("local_index", None)
    capacity = None if local_index is None else local_index.node_capacity
    return ColumnBlock, (payload, metadata, capacity)


# Registered at import: a block only has a payload once this module is
# loaded, so every block the reducer would shrink meets it.
ForkingPickler.register(Block, _reduce_block)
