"""The block codec: one encode/decode pair and one CRC for every body.

Every body kind a block can hold -- float points and rectangles, bare or
as Features, and the record path's polygons (bare or as Features), tuple
pairs, mixed shapes and int-coordinate rectangles -- round-trips through ``encode`` /
``decode``, is sealed with the codec's CRC, and keeps that CRC across a
plain pickle, the pool's pickler and the checkpoint journal, because the
CRC depends on values only. Changing one value changes it.
"""

import math
import os
import pickle
from multiprocessing.reduction import ForkingPickler

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Feature
from repro.geometry import Point, Polygon, Rectangle
from repro.mapreduce import FileSystem
from repro.mapreduce.checkpoint import (
    read_checkpoint_file,
    write_checkpoint_file,
)
from repro.mapreduce import columnar
from repro.mapreduce.columnar import (
    ColumnarPayload,
    crc,
    decode,
    encode,
    pickled,
)
from repro.mapreduce.types import TaskResult

COORD = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)
INT = st.integers(-10**6, 10**6)

points = st.builds(Point, COORD, COORD)
rectangles = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    COORD, COORD, st.floats(0, 1e3), st.floats(0, 1e3),
)
int_rectangles = st.builds(
    lambda x, y, w, h: Rectangle(x, y, x + w, y + h),
    INT, INT, st.integers(0, 1000), st.integers(0, 1000),
)
polygons = st.builds(
    lambda cx, cy, r, n: Polygon([
        Point(cx + r * math.cos(2 * math.pi * i / n),
              cy + r * math.sin(2 * math.pi * i / n))
        for i in range(n)
    ]),
    COORD, COORD, st.floats(1.0, 100.0), st.integers(3, 8),
)
#: Attribute values, one-character strings among them. ``str(i)`` makes
#: a fresh string object each time, and a pickle round trip brings it
#: back as the interpreter's shared singleton: a CRC over a pickle with
#: the memo on sees the difference.
attributes = st.dictionaries(
    st.sampled_from(["t", "id", "name"]),
    st.one_of(st.integers(0, 3).map(str), st.text(max_size=6), INT, COORD),
    max_size=3,
)


def features(shapes):
    return st.builds(Feature, shapes, attributes)


#: Lists long and short: the journal packs lists of 64 and more.
def lists(element):
    return st.lists(element, min_size=1, max_size=90)


PAYLOAD_KINDS = {
    "points": lists(points),
    "rectangles": lists(rectangles),
    "point-features": lists(features(points)),
    "rectangle-features": lists(features(rectangles)),
}
RECORD_KINDS = {
    "polygons": lists(polygons),
    "polygon-features": lists(features(polygons)),
    "tuple-pairs": lists(st.tuples(points, rectangles)),
    "mixed-shapes": st.builds(
        lambda point, rectangle, rest: [point, rectangle, *rest],
        points, rectangles,
        st.lists(st.one_of(points, rectangles, polygons), max_size=88),
    ),
    "int-rectangles": lists(int_rectangles),
}
BODIES = st.sampled_from(sorted({**PAYLOAD_KINDS, **RECORD_KINDS})).flatmap(
    lambda kind: st.tuples(st.just(kind),
                           {**PAYLOAD_KINDS, **RECORD_KINDS}[kind])
)

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def body_of(records):
    """What a sealed block of ``records`` is encoded as."""
    payload = ColumnarPayload.from_records(records)
    return records if payload is None else payload


def records_of(body):
    return body.materialize() if type(body) is ColumnarPayload else body


def checksum(body):
    return crc(*encode(body))


def journal_round_trip(tmp_path, records):
    """``records`` as a wave's task output, committed and replayed."""
    path = tmp_path / "wave-log.ckpt"
    path.unlink(missing_ok=True)
    wave = ([TaskResult(len(records), {}, [], records, 0.0, [], {})], [], {})
    fd = os.open(str(path), os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    try:
        write_checkpoint_file(fd, 0, "fp", wave)
    finally:
        os.close(fd)
    results, _, _ = read_checkpoint_file(path)["payload"]
    return results[0].output


@SETTINGS
@given(BODIES)
def test_every_body_kind_takes_its_path(case):
    kind, records = case
    assert (type(body_of(records)) is ColumnarPayload) == (
        kind in PAYLOAD_KINDS
    )


@SETTINGS
@given(BODIES)
def test_decode_inverts_encode(case):
    _, records = case
    header, buffers = encode(body_of(records))
    assert records_of(decode(header, *buffers)) == records


@SETTINGS
@given(BODIES)
def test_seal_stamps_the_codec_crc(case):
    _, records = case
    fs = FileSystem(default_block_capacity=len(records))
    (block,) = fs.create_file("f", list(records)).blocks
    body = records if block.columnar is None else block.columnar
    assert block.checksum == checksum(body) == checksum(body_of(records))


@settings(SETTINGS, suppress_health_check=[
    HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(BODIES)
def test_crc_survives_every_pickler(tmp_path, case):
    _, records = case
    body = body_of(records)
    expected = checksum(body)
    plain = pickle.loads(pickle.dumps(body, protocol=5))
    forked = pickle.loads(ForkingPickler.dumps(body, protocol=4))
    assert checksum(plain) == checksum(forked) == expected
    assert records_of(plain) == records_of(forked) == records
    # The journal stores records, not bodies; a replayed list seals to
    # the same CRC.
    replayed = journal_round_trip(tmp_path, records)
    assert replayed == records
    assert checksum(body_of(replayed)) == expected


@SETTINGS
@given(BODIES, st.data())
def test_one_changed_value_changes_the_crc(case, data):
    _, records = case
    row = data.draw(st.integers(0, len(records) - 1))
    changed = list(records)
    changed[row] = data.draw(st.sampled_from(alterations(records[row])))
    assert checksum(body_of(changed)) != checksum(body_of(records))


def _nudge(value):
    if isinstance(value, float):
        return math.nextafter(value, math.inf)
    return value + 1


def alterations(record):
    """Copies of ``record`` with one coordinate or attribute changed."""
    if isinstance(record, Feature):
        out = [Feature(shape, record.attributes)
               for shape in alterations(record.shape)]
        for key, value in record.attributes.items():
            other = value + "!" if isinstance(value, str) else _nudge(value)
            out.append(Feature(record.shape, {**record.attributes,
                                              key: other}))
        return out
    if isinstance(record, tuple):
        return [(left, record[1]) for left in alterations(record[0])]
    if isinstance(record, Point):
        return [Point(_nudge(record.x), record.y)]
    if isinstance(record, Rectangle):
        return [Rectangle(record.x1, record.y1, _nudge(record.x2), record.y2)]
    shell = list(record.shell)
    shell[0] = Point(_nudge(shell[0].x), shell[0].y)
    return [Polygon(shell)]


def test_plain_arrays_round_trip_at_every_protocol():
    for array in (np.arange(12, dtype=np.int64).reshape(3, 4),
                  np.array([0.5, -1.0]), np.zeros(0, dtype=np.int32),
                  np.array(7, dtype=np.uint8)):
        header, buffers = encode(array)
        assert header.startswith("array:")
        for protocol in (4, 5):
            fn, args = pickled(array, protocol)
            back = pickle.loads(pickle.dumps(fn(*args), protocol))
            assert back.dtype == array.dtype and back.shape == array.shape
            assert (back == array).all()
            assert checksum(back) == crc(header, buffers)


def test_buffers_reach_the_pool_as_bytes():
    payload = ColumnarPayload.from_records(
        [Feature(Point(1.0, 2.0), {"t": "a"})])
    _, args = pickled(payload, 4)
    assert {type(b) for b in args[1:]} == {bytes}
    _, args = pickled(payload, 5)
    assert {type(b) for b in args[1:]} == {pickle.PickleBuffer}


def test_unpicklable_records_checksum_their_repr():
    records = [lambda: 0]
    header, (buffer,) = encode(records)
    assert header == "repr" and buffer == repr(records).encode()


def test_sealing_a_feature_block_pickles_its_attributes_once(monkeypatch):
    calls = []
    real = columnar._by_value

    def counted(obj):
        calls.append(1)
        return real(obj)

    monkeypatch.setattr(columnar, "_by_value", counted)
    fs = FileSystem(default_block_capacity=100)
    fs.create_file("f", [Feature(Point(float(i), 0.0), {"t": str(i % 4)})
                         for i in range(100)])
    (block,) = fs.get("f").blocks
    assert block.columnar.attributes is not None and len(calls) == 1
    # The sealed bytes are what the pool and a workspace get.
    pickle.loads(ForkingPickler.dumps(block.columnar))
    pickle.loads(pickle.dumps(block.columnar, protocol=5))
    assert len(calls) == 1
