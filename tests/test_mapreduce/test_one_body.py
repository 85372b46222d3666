"""A sealed block has one body.

A block with a columnar payload stores and ships that payload only: its
records are a cache thawed from the columns on first read, and no pickle
(workspace or pool) carries them. A block without one (polygons, int
coordinates) keeps its record list as its body. These tests pin that on
every shape, on heap and ``str+`` files: a save and load gives back the
same records and checksums, a payload block pickles to its fields and
nothing more, and a count or an fsck after a reload, or a count on a
pool worker, thaws no block.
"""

import hashlib
import pickle
from multiprocessing.reduction import ForkingPickler

import pytest

from repro import Feature, SpatialHadoop
from repro.core.workspace import load_workspace, save_workspace
from repro.datagen import generate_points, generate_polygons
from repro.datagen.shapes import generate_rectangles
from repro.geometry import Point, Rectangle
from repro.mapreduce.columnar import ColumnarPayload

from tests.test_mapreduce.test_column_block import thawed

WINDOW = Rectangle(2e5, 2e5, 6e5, 6e5)
#: Shapes whose blocks get a payload.
PAYLOAD_SHAPES = ("points", "rects", "features")


def shapes():
    points = generate_points(300, "uniform", seed=1)
    return {
        "points": points,
        "rects": generate_rectangles(200, "uniform", seed=2),
        "features": [Feature(p, {"id": i, "t": str(i % 4)})
                     for i, p in enumerate(points)],
        "polys": generate_polygons(120, "uniform", seed=3),
        "ints": [Point(int(p.x), int(p.y)) for p in points],
    }


def build(workers=1):
    sh = SpatialHadoop(num_nodes=2, block_capacity=50, job_overhead_s=0.01,
                       workers=workers)
    for name, records in shapes().items():
        sh.load(name, records)
        sh.index(name, f"{name}_idx", technique="str+")
    return sh


def blocks(sh):
    for name in sh.fs.list_files():
        for block in sh.fs.get(name).blocks:
            yield name, block


def digest(sh):
    """Per file: a digest of its records' ``repr``s and its block CRCs."""
    return {
        name: (
            hashlib.sha256(
                repr(list(sh.fs.get(name).records())).encode()
            ).hexdigest(),
            [block.checksum for block in sh.fs.get(name).blocks],
        )
        for name in sh.fs.list_files()
    }


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """A workspace of every shape, heap and indexed, and where it is
    saved: ``(system, path, counts)``."""
    sh = build()
    path = tmp_path_factory.mktemp("one-body") / "ws.pkl"
    save_workspace(sh, path)
    counts = {name: sh.range_count(name, WINDOW).answer
              for name in sh.fs.list_files()}
    return sh, path, counts


@pytest.fixture
def no_thaw(monkeypatch):
    """Records thawed from a payload, counted while the test runs."""
    calls = []
    materialize = ColumnarPayload.materialize

    def counted(self):
        calls.append(self.count)
        return materialize(self)

    monkeypatch.setattr(ColumnarPayload, "materialize", counted)
    return calls


def test_every_shape_has_the_expected_body(saved):
    sh = saved[0]
    for name, block in blocks(sh):
        has_payload = name.split("_")[0] in PAYLOAD_SHAPES
        assert (block.columnar is not None) == has_payload, name
        if has_payload:
            assert len(block) == block.columnar.count


def test_save_and_load_keep_records_and_checksums(saved):
    sh, path, _ = saved
    assert digest(load_workspace(path)) == digest(sh)


def test_a_payload_block_pickles_to_its_fields_only(saved):
    """The workspace's pickle and the pool's hold the payload, metadata,
    checksum and replica map, and no record object."""
    sh = saved[0]
    for name, block in blocks(sh):
        fields = (block.metadata, block.checksum, block.replicas,
                  block.columnar)
        for raw in (pickle.dumps(block, protocol=5),
                    ForkingPickler.dumps(block)):
            clone = pickle.loads(raw)
            if block.columnar is None:
                assert clone.records == block.records, name
                continue
            assert not thawed(clone), name
            protocol = 5 if raw[1] == 5 else 4
            assert len(raw) < len(pickle.dumps(fields, protocol)) + 128, name


def test_reload_counts_and_fscks_without_thawing(saved, no_thaw):
    _, path, counts = saved
    back = load_workspace(path)
    for name in back.fs.list_files():
        assert back.range_count(name, WINDOW).answer == counts[name], name
    assert back.fsck().healthy
    assert no_thaw == []
    for name, block in blocks(back):
        assert thawed(block) == (block.columnar is None), name


def test_a_repair_of_a_reloaded_block_keeps_its_records(saved):
    """fsck re-stamps a damaged payload as it stands; the records thaw
    from that payload."""
    _, path, _ = saved
    back = load_workspace(path)
    block = back.fs.get("features_idx").blocks[0]
    block.columnar.columns[1][0] += 1.0
    report = back.fsck(repair=True)
    assert [i.code for i in report.issues] == ["checksum-mismatch"]
    assert back.fsck().healthy
    assert block.records[0].shape.y == block.columnar.columns[1][0]
    assert [f.attributes for f in block.records] == block.columnar.attributes


@pytest.mark.usefixtures("pool_pinned")
def test_a_shipped_block_thaws_nothing_on_a_count(monkeypatch):
    """Every count wave runs on two pool workers that cannot thaw a
    payload (the pool forks after the patch): the counts still agree
    with the driver's."""
    serial = build()
    counts = {name: serial.range_count(name, WINDOW).answer
              for name in serial.fs.list_files()}
    sh = build(workers=2)
    sh.runner.close()  # the next wave forks a pool that has the patch

    def refuse(self):
        raise AssertionError("a payload block was thawed")

    monkeypatch.setattr(ColumnarPayload, "materialize", refuse)
    try:
        for name in sh.fs.list_files():
            assert sh.range_count(name, WINDOW).answer == counts[name], name
            assert sh.runner.executor.last_dispatch["reason"] == "pinned"
        assert sh.runner.executor.fallbacks == 0
    finally:
        sh.runner.close()
