"""Columnar block payloads: construction, durability, storage adoption."""

import pickle
import zlib
from array import array

from repro.geometry import Point, Rectangle
from repro.index.rtree import block_columns
from repro.mapreduce import Block, FileSystem
from repro.mapreduce.columnar import (
    ColumnarPayload,
    crc,
    decode,
    encode,
)
from repro.mapreduce.storage import run_fsck

POINTS = [Point(float(i), float(i) * 2.0) for i in range(40)]
RECTS = [
    Rectangle(float(i), float(i), float(i) + 1.0, float(i) + 2.0)
    for i in range(25)
]


class TestFromRecords:
    def test_points_transpose(self):
        payload = ColumnarPayload.from_records(POINTS)
        assert payload.kind == "point"
        assert payload.count == len(POINTS)
        assert payload.materialize() == POINTS

    def test_rects_transpose(self):
        payload = ColumnarPayload.from_records(RECTS)
        assert payload.kind == "rect"
        assert payload.materialize() == RECTS

    def test_empty_and_mixed_are_not_columnar(self):
        assert ColumnarPayload.from_records([]) is None
        assert ColumnarPayload.from_records([POINTS[0], RECTS[0]]) is None
        assert ColumnarPayload.from_records([("tag", POINTS[0])]) is None

    def test_point_subclass_is_rejected(self):
        class Tagged(Point):
            pass

        assert ColumnarPayload.from_records([Tagged(1.0, 2.0)]) is None

    def test_non_float_coordinates_are_not_columnar(self):
        # Rebuilt records hold floats: an int corner would change type.
        assert ColumnarPayload.from_records([Point(1, 2.0)]) is None
        assert ColumnarPayload.from_records(
            RECTS + [Rectangle(0.0, 0.0, 1.0, 2)]
        ) is None
        assert ColumnarPayload.from_records([Point(True, 2.0)]) is None

    def test_materialize_yields_plain_floats(self):
        payload = ColumnarPayload.from_records(POINTS)
        rebuilt = payload.materialize()
        assert all(type(p.x) is float and type(p.y) is float for p in rebuilt)


class TestBytesAndChecksum:
    def test_buffer_round_trip(self):
        payload = ColumnarPayload.from_records(RECTS)
        header, buffers = encode(payload)
        raw = [bytes(b) for b in buffers]
        assert sum(map(len, raw)) == payload.nbytes
        view = decode(header, *raw)
        assert view.materialize() == RECTS
        assert view.checksum() == payload.checksum()

    def test_pickle_round_trip_is_portable(self):
        payload = ColumnarPayload.from_records(POINTS)
        clone = pickle.loads(pickle.dumps(payload))
        assert clone.kind == payload.kind
        assert clone.count == payload.count
        assert clone.materialize() == POINTS
        assert clone.checksum() == payload.checksum()

    def test_checksum_is_backend_independent(self):
        """The CRC is the one an ``array('d')`` payload was stamped with,
        so blocks sealed before NumPy was required still verify."""
        crc = zlib.crc32(f"point:{len(POINTS)}".encode("ascii"))
        for axis in ("x", "y"):
            column = array("d", [getattr(p, axis) for p in POINTS])
            crc = zlib.crc32(column.tobytes(), crc)
        assert ColumnarPayload.from_records(POINTS).checksum() == crc

    def test_checksum_separates_kind_and_count(self):
        # Same raw bytes, different record interpretation: the header
        # keeps the CRCs apart.
        pts = [Point(1.0, 2.0), Point(3.0, 4.0)]
        rect = [Rectangle(1.0, 3.0, 2.0, 4.0)]
        a = ColumnarPayload.from_records(pts)
        b = ColumnarPayload.from_records(rect)
        assert a.checksum() != b.checksum()


class TestStorageAdoption:
    def build_fs(self):
        fs = FileSystem(default_block_capacity=16)
        fs.create_file("pts", list(POINTS))
        return fs

    def test_seal_attaches_payload_when_enabled(self):
        fs = self.build_fs()
        for block in fs.get("pts").blocks:
            payload = getattr(block, "columnar", None)
            assert payload is not None
            assert block.checksum == payload.checksum()
            assert block.checksum == crc(*encode(payload))

    def test_int_block_is_sealed_over_its_records(self):
        fs = FileSystem(default_block_capacity=16)
        fs.create_file("ints", [Point(i, 2 * i) for i in range(20)])
        for block in fs.get("ints").blocks:
            assert block.columnar is None
            assert block.checksum == crc(*encode(block.records))
        assert run_fsck(fs).healthy

    def test_fsck_still_detects_mutation(self):
        fs = self.build_fs()
        block = fs.get("pts").blocks[0]
        # The payload is the body: damage to its columns is damage.
        block.columnar.columns[0][0] = -999.0
        report = run_fsck(fs)
        assert not report.healthy


class TestPayloadOf:
    """Which body a block's derived MBR columns come from: its payload
    when it has one, else the records."""

    def make_block(self):
        return Block(
            records=list(POINTS),
            columnar=ColumnarPayload.from_records(POINTS),
        )

    def test_returns_payload_when_fresh(self):
        block = self.make_block()
        cols = block_columns(block)
        assert block.local_view[0] is block.columnar
        assert all(a is b for a, b in zip(cols, block.columnar.mbr_columns()))

    def test_none_without_payload(self):
        block = Block(records=list(POINTS))
        assert len(block_columns(block)[0]) == len(POINTS)
        assert block.local_view[0] is block.records
