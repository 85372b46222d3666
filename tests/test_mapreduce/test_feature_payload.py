"""Feature blocks over points and rectangles carry the columnar payload.

A block of exact :class:`Feature` records whose shapes are all float
Points or all float Rectangles gets the geometry columns bare shapes get,
plus an attribute column (the per-row attribute dicts). These tests pin
where the payload appears, where it must not, that the checksum covers
the attributes, that every persistence path gives back equal Features,
and that every query-language operation answers the same whether a
Feature block is read through its payload or record by record, serially
or on the pool.
"""

import contextlib

import pytest

from repro import Feature, SpatialHadoop
from repro.core.workspace import load_workspace, save_workspace
from repro.datagen import generate_points, generate_polygons
from repro.datagen.shapes import generate_rectangles
from repro.geometry import Point, Rectangle
from repro.index.build import PARTITIONERS
from repro.index.rtree import RTree, local_index
from repro.mapreduce.checkpoint import DriverCrashed
from repro.mapreduce.columnar import ColumnarPayload, crc, encode
from repro.mapreduce.storage import run_fsck
from repro.operations.table import OPERATIONS
from repro.pigeon import run_script

from tests.test_mapreduce.test_checkpoint import frame_bytes
from tests.test_mapreduce.test_column_block import ship

WINDOW = Rectangle(2e5, 2e5, 6e5, 6e5)
QUERY_ARGS = {"window": WINDOW, "point": Point(4.5e5, 5.5e5), "k": 5}
CATEGORIES = ("cafe", "bar", "shop")


def feature_points(n=300, seed=1):
    return [
        Feature(p, {"id": i, "category": CATEGORIES[i % 3]})
        for i, p in enumerate(generate_points(n, "uniform", seed=seed))
    ]


def feature_rects(n=200, seed=2):
    return [
        Feature(r, {"id": i, "tags": ["r", str(i % 4)]})
        for i, r in enumerate(generate_rectangles(n, "uniform", seed=seed))
    ]


def loaded(block_capacity=50, **kwargs):
    sh = SpatialHadoop(num_nodes=2, block_capacity=block_capacity,
                       job_overhead_s=0.01, **kwargs)
    sh.load("fp", feature_points())
    sh.load("fr", feature_rects())
    return sh


def assert_feature_payload(block):
    payload = block.columnar
    assert payload is not None
    assert payload.count == len(block.records)
    assert payload.attributes == [f.attributes for f in block.records]
    assert payload.materialize() == block.records
    assert block.checksum == payload.checksum()


_FROM_RECORDS = ColumnarPayload.from_records.__func__


def _no_feature_payload(cls, records):
    if records and type(records[0]) is Feature:
        return None
    return _FROM_RECORDS(cls, records)


@contextlib.contextmanager
def record_path():
    """Feature lists get no payload while open: the record path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            ColumnarPayload, "from_records", classmethod(_no_feature_payload)
        )
        yield


def tree_values(tree):
    """A local index as plain values: entry and leaf columns, capacity."""
    return (tree.node_capacity, [col.tolist() for col in tree.columns],
            [col.tolist() for col in tree.leaves])


class TestPayloadPresent:
    def test_after_load(self):
        sh = loaded()
        for name, kind in (("fp", "point"), ("fr", "rect")):
            for block in sh.fs.get(name).blocks:
                assert_feature_payload(block)
                assert block.columnar.kind == kind

    @pytest.mark.parametrize("technique", sorted(PARTITIONERS))
    def test_after_index_with_every_technique(self, technique):
        sh = loaded()
        for name in ("fp", "fr"):
            sh.index(name, f"{name}_idx", technique=technique)
            for block in sh.fs.get(f"{name}_idx").blocks:
                assert_feature_payload(block)
                assert tree_values(local_index(block)) == tree_values(
                    RTree.from_columns(*block.columnar.mbr_columns())
                )
        assert run_fsck(sh.fs).healthy

    @pytest.mark.parametrize("technique", sorted(PARTITIONERS))
    def test_index_cells_match_the_record_path(self, technique):
        """Same cells, same rows in the same packed order, same trees."""
        with record_path():
            scalar = loaded()
            for name in ("fp", "fr"):
                scalar.index(name, f"{name}_idx", technique=technique)
        columnar = loaded()
        for name in ("fp", "fr"):
            columnar.index(name, f"{name}_idx", technique=technique)
            want = scalar.fs.get(f"{name}_idx").blocks
            got = columnar.fs.get(f"{name}_idx").blocks
            assert all(block.columnar is None for block in want)
            assert [b.records for b in got] == [b.records for b in want]
            assert [tree_values(local_index(b)) for b in got] == [
                tree_values(local_index(b)) for b in want
            ]

    def test_on_a_relation_a_pigeon_filter_writes(self):
        sh = loaded()
        result = run_script(sh, """
            pois  = LOAD 'fp';
            cafes = FILTER pois BY category == 'cafe';
            STORE cafes INTO 'cafes_out';
        """)
        written = result.relations["cafes"]
        assert written != "fp"
        for name in (written, "cafes_out"):
            blocks = sh.fs.get(name).blocks
            assert blocks
            for block in blocks:
                assert_feature_payload(block)
                assert {f["category"] for f in block.records} == {"cafe"}


class Tagged(Feature):
    pass


class TestNoPayload:
    @pytest.mark.parametrize("records", [
        pytest.param(
            [Feature(p, {"id": 1})
             for p in generate_polygons(5, "uniform", seed=3)],
            id="polygons",
        ),
        pytest.param(
            [Feature(Point(1.0, 2.0), {}),
             Feature(Rectangle(0.0, 0.0, 1.0, 1.0), {})],
            id="mixed-shapes",
        ),
        pytest.param(
            [Feature(Point(1.0, 2.0), {}), Feature(Point(3, 4.0), {})],
            id="int-coordinates",
        ),
        pytest.param(
            [Feature(Point(1.0, 2.0), {}), Tagged(Point(3.0, 4.0), {})],
            id="feature-subclass",
        ),
        pytest.param(
            [Feature(Point(1.0, 2.0), {"f": lambda: 0})],
            id="unpicklable-attribute",
        ),
        pytest.param(
            [Feature(Point(1.0, 2.0), {}), Point(3.0, 4.0)],
            id="features-and-shapes",
        ),
    ])
    def test_takes_the_record_path(self, records):
        assert ColumnarPayload.from_records(records) is None
        sh = SpatialHadoop(num_nodes=2)
        sh.load("f", records)
        (block,) = sh.fs.get("f").blocks
        assert block.columnar is None
        assert block.checksum == crc(*encode(block.records))
        # The records are the body: every pickle of the block carries
        # them.
        assert block.__getstate__()["records"] is block.records


class TestIntegrity:
    def test_attribute_mutation_is_flagged_and_repaired(self):
        sh = loaded()
        block = sh.fs.get("fp").blocks[1]
        before = block.checksum
        block.records[3].attributes["category"] = "tampered"
        report = run_fsck(sh.fs)
        assert [(i.file, i.block, i.code) for i in report.issues] == [
            ("fp", 1, "checksum-mismatch")
        ]
        assert report.issues[0].data == {
            "stored": before,
            "actual": ColumnarPayload.from_records(block.records).checksum(),
        }
        assert run_fsck(sh.fs, repair=True).repaired_count == 1
        assert run_fsck(sh.fs).healthy
        # A worker sees the block as the driver now holds it.
        assert ship(block).records[3]["category"] == "tampered"

    def test_cli_fsck_flags_and_repairs(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "ws.pkl"
        save_workspace(loaded(), path)
        sh = load_workspace(path)
        block = sh.fs.get("fr").blocks[0]
        block.records[0].attributes["id"] = -1
        # The damaged attribute column becomes the stored body, unstamped.
        block.columnar = block.columnar.current()
        save_workspace(sh, path)
        assert main(["-w", str(path), "fsck"]) == 0
        assert "checksum-mismatch" in capsys.readouterr().out
        assert main(["-w", str(path), "fsck", "--repair"]) == 0
        capsys.readouterr()
        assert main(["-w", str(path), "fsck", "--format", "json"]) == 0
        assert "checksum-mismatch" not in capsys.readouterr().out
        assert load_workspace(path).fsck().healthy


class TestPersistence:
    def test_workspace_round_trip(self, tmp_path):
        sh = loaded()
        sh.index("fr", "fr_idx", technique="quadtree")
        path = tmp_path / "ws.pkl"
        save_workspace(sh, path)
        back = load_workspace(path)
        for name in ("fp", "fr", "fr_idx"):
            for mine, theirs in zip(
                sh.fs.get(name).blocks, back.fs.get(name).blocks
            ):
                assert theirs.records == mine.records
                assert theirs.checksum == mine.checksum
                # The "tags" lists hold one-character strings, which
                # come back shared: the attribute CRC must not notice.
                assert_feature_payload(theirs)
        assert back.fsck().healthy

    def test_checkpoint_replay(self, tmp_path):
        def features_in_window(sh):
            return sh.range_query("fp", Rectangle(0.0, 0.0, 1e6, 1e6))

        # Blocks big enough for the journal to pack their outputs.
        clean = features_in_window(loaded(100))
        directory = tmp_path / "run.ckpt"
        crashed = loaded(100, faults="crashdriver:0")
        crashed.enable_checkpoints(directory)
        with pytest.raises(DriverCrashed):
            features_in_window(crashed)
        # The Feature outputs crossed the journal as columns.
        assert b"materialize" in frame_bytes(directory, 0)
        resumed = loaded(100, faults="crashdriver:0")
        manager = resumed.resume(directory)
        got = features_in_window(resumed)
        assert manager.waves_replayed == 1
        assert got.answer == clean.answer == feature_points()
        assert all(type(f) is Feature for f in got.answer)
        assert got.counters.as_dict() == clean.counters.as_dict()


# ----------------------------------------------------------------------
# Every operation: record path vs payload, serial vs pool
# ----------------------------------------------------------------------
def indexed(sh):
    for name in ("fp", "fr"):
        sh.index(name, f"{name}_str", technique="str")
        sh.index(name, f"{name}_grid", technique="grid")
    return sh


def outcomes(sh):
    """Every operation on every Feature file: answer and counters, or the
    error it raises (some operations are defined on points only)."""
    seen = {}
    for op in OPERATIONS.values():
        for base in ("fp", "fr"):
            for suffix in ("", "_str", "_grid"):
                files = [base + suffix] * op.files
                args = [QUERY_ARGS[a] for a in op.args]
                try:
                    result = getattr(sh, op.method)(*files, *args)
                except (TypeError, ValueError, AttributeError) as exc:
                    seen[op.name, files[0]] = (type(exc).__name__, str(exc))
                else:
                    seen[op.name, files[0]] = (
                        repr(result.answer), result.counters.as_dict()
                    )
    return seen


@pytest.fixture(scope="module")
def record_path_outcomes():
    with record_path():
        sh = indexed(loaded())
    assert all(b.columnar is None for b in sh.fs.get("fp_str").blocks)
    return outcomes(sh)


class TestOperations:
    def test_serial_matches_the_record_path(self, record_path_outcomes):
        got = outcomes(indexed(loaded()))
        assert got == record_path_outcomes
        answered = [key for key, (answer, _) in got.items()
                    if not answer.endswith("Error")]
        assert len({name for name, _ in answered}) >= 9

    @pytest.mark.usefixtures("pool_pinned")
    def test_pool_matches_the_record_path(self, record_path_outcomes):
        sh = indexed(loaded(workers=2))
        try:
            assert outcomes(sh) == record_path_outcomes
            assert sh.runner.executor.fallbacks == 0
        finally:
            sh.runner.close()


# ----------------------------------------------------------------------
# Union over Feature polygons
# ----------------------------------------------------------------------
class TestUnionOverFeatures:
    """Union is defined on polygons; over Feature-wrapped polygons it
    answers as over the bare shapes."""

    @pytest.mark.parametrize("variant", ["heap", "str+", "enhanced"])
    def test_same_answer_as_bare_polygons(self, variant):
        polygons = generate_polygons(120, "uniform", seed=4)
        sh = SpatialHadoop(num_nodes=2, block_capacity=30,
                           job_overhead_s=0.01)
        sh.load("bare", polygons)
        sh.load("feat", [Feature(p, {"id": i})
                         for i, p in enumerate(polygons)])
        if variant != "heap":
            for name in ("bare", "feat"):
                sh.index(name, f"{name}_idx", technique="str+")
        results = [
            sh.union(name if variant == "heap" else f"{name}_idx",
                     enhanced=variant == "enhanced")
            for name in ("bare", "feat")
        ]
        bare, feat = results
        assert bare.answer
        assert feat.answer == bare.answer
        assert feat.counters.as_dict() == bare.counters.as_dict()
