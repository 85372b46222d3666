"""Tests for Pigeon expression evaluation and the script runner."""

import pytest

from repro import Feature, SpatialHadoop
from repro.datagen import generate_points
from repro.geometry import Point, Rectangle
from repro.pigeon import PigeonError, run_script
from repro.pigeon.eval import PigeonEvalError, evaluate
from repro.pigeon.parser import parse


def pred(text):
    (stmt,) = parse(f"a = FILTER b BY {text};").statements
    return stmt.predicate


class TestEval:
    RECORD = Feature(Point(3, 4), {"name": "cafe-1", "size": 10.0, "open": True})

    def test_identifier_geom(self):
        assert evaluate(pred("X(geom) == 3"), self.RECORD) is True
        assert evaluate(pred("Y(geom) == 4"), self.RECORD) is True

    def test_attributes(self):
        assert evaluate(pred("name == 'cafe-1'"), self.RECORD)
        assert evaluate(pred("size >= 10"), self.RECORD)
        assert not evaluate(pred("size > 10"), self.RECORD)

    def test_arithmetic(self):
        assert evaluate(pred("size * 2 + 1 == 21"), self.RECORD)
        assert evaluate(pred("size / 4 == 2.5"), self.RECORD)
        assert evaluate(pred("size - 12 == -2"), self.RECORD)

    def test_boolean_logic(self):
        assert evaluate(pred("size == 10 AND name == 'cafe-1'"), self.RECORD)
        assert evaluate(pred("size == 99 OR open == TRUE"), self.RECORD)
        assert evaluate(pred("NOT size == 99"), self.RECORD)

    def test_spatial_functions(self):
        assert evaluate(pred("Overlaps(geom, MakeBox(0, 0, 5, 5))"), self.RECORD)
        assert not evaluate(pred("Overlaps(geom, MakeBox(9, 9, 10, 10))"), self.RECORD)
        assert evaluate(pred("Contains(MakeBox(0, 0, 5, 5), geom)"), self.RECORD)
        assert evaluate(pred("Distance(geom, MakePoint(3, 0)) == 4"), self.RECORD)
        assert evaluate(pred("Area(MakeBox(0, 0, 2, 3)) == 6"), self.RECORD)

    def test_bare_point_record(self):
        assert evaluate(pred("X(geom) > 1"), Point(2, 0))
        with pytest.raises(PigeonEvalError):
            evaluate(pred("name == 'x'"), Point(2, 0))

    def test_missing_attribute(self):
        with pytest.raises(PigeonEvalError, match="no attribute"):
            evaluate(pred("missing == 1"), self.RECORD)

    def test_unknown_function(self):
        with pytest.raises(PigeonEvalError, match="unknown function"):
            evaluate(pred("Bogus(geom)"), self.RECORD)


@pytest.fixture
def sh():
    system = SpatialHadoop(num_nodes=4, block_capacity=150, job_overhead_s=0.01)
    pts = generate_points(1200, "uniform", seed=3, space=Rectangle(0, 0, 1000, 1000))
    feats = [
        Feature(p, {"name": f"poi{i}", "cat": "cafe" if i % 4 == 0 else "shop"})
        for i, p in enumerate(pts)
    ]
    system.fs.create_file("pois", feats)
    return system


class TestRunner:
    def test_load_and_dump(self, sh):
        res = run_script(sh, "p = LOAD 'pois'; DUMP p;")
        assert len(res.dumped["p"]) == 1200

    def test_load_missing_file(self, sh):
        with pytest.raises(PigeonError, match="no such file"):
            run_script(sh, "p = LOAD 'nope';")

    def test_unknown_relation(self, sh):
        with pytest.raises(PigeonError, match="unknown relation"):
            run_script(sh, "DUMP q;")

    def test_filter_by_attribute(self, sh):
        res = run_script(
            sh, "p = LOAD 'pois'; c = FILTER p BY cat == 'cafe'; DUMP c;"
        )
        assert len(res.dumped["c"]) == 300

    def test_indexed_filter_compiles_to_range_query(self, sh):
        res = run_script(
            sh,
            """
            p = LOAD 'pois';
            i = INDEX p USING grid;
            w = FILTER i BY Overlaps(geom, MakeBox(0, 0, 250, 250));
            DUMP w;
            """,
        )
        # The filter ran as an indexed range query: it pruned partitions.
        range_op = res.operations[-1]
        assert range_op.counters["BLOCKS_PRUNED"] > 0
        expected = [
            f
            for f in sh.fs.read_records("pois")
            if Rectangle(0, 0, 250, 250).contains_point(f.shape)
        ]
        assert len(res.dumped["w"]) == len(expected)

    # "stored": 'idx' is a grid index when EXPLAIN runs, but the script
    # overwrites it with a heap file before it FILTERs it.
    @pytest.mark.parametrize("index", [False, True, "stored"])
    def test_filter_plan_trace_agrees_with_explain(self, sh, index):
        from repro.observe.explain import explain_pigeon

        if index == "stored":
            sh.index("pois", "idx", technique="grid")
        script = (
            "p = LOAD 'pois';"
            + (" p = INDEX p USING grid;" if index is True else "")
            + (" STORE p INTO 'idx'; p = LOAD 'idx';"
               if index == "stored" else "")
            + " w = FILTER p BY Overlaps(geom, MakeBox(0, 0, 250, 250));"
            + " DUMP w;"
        )
        (filter_node,) = [
            n for n in explain_pigeon(sh, script).plan.children
            if n.name.startswith("FILTER")
        ]
        tracer = sh.enable_tracing()
        run_script(sh, script)
        traced = [
            r["attrs"]["plan"] for r in tracer.records()
            if r["name"] == "pigeon:plan"
        ]
        assert traced == [filter_node.detail["plan"]]
        assert traced == ["indexed-range" if index is True else "scan-filter"]

    def test_range_statement(self, sh):
        res = run_script(
            sh,
            "p = LOAD 'pois'; w = RANGE p RECTANGLE(100, 100, 400, 400); DUMP w;",
        )
        expected = [
            f
            for f in sh.fs.read_records("pois")
            if Rectangle(100, 100, 400, 400).contains_point(f.shape)
        ]
        assert len(res.dumped["w"]) == len(expected)

    def test_knn_statement(self, sh):
        res = run_script(
            sh,
            """
            p = LOAD 'pois';
            i = INDEX p USING str;
            n = KNN i POINT(500, 500) K 3;
            DUMP n;
            """,
        )
        assert len(res.dumped["n"]) == 3

    def test_sjoin_statement(self, sh):
        res = run_script(
            sh,
            """
            a = LOAD 'pois';
            b = LOAD 'pois';
            j = SJOIN a, b;
            DUMP j;
            """,
        )
        # Every point joins at least with itself.
        assert len(res.dumped["j"]) >= 1200

    def test_skyline_statement(self, sh):
        from repro.geometry.algorithms.skyline import skyline

        res = run_script(sh, "p = LOAD 'pois'; s = SKYLINE p; DUMP s;")
        pts = [f.shape for f in sh.fs.read_records("pois")]
        assert sorted(res.dumped["s"]) == skyline(pts)

    def test_convexhull_statement(self, sh):
        from repro.geometry.algorithms.convex_hull import convex_hull

        res = run_script(sh, "p = LOAD 'pois'; h = CONVEXHULL p; DUMP h;")
        pts = [f.shape for f in sh.fs.read_records("pois")]
        assert len(res.dumped["h"]) == len(convex_hull(pts))

    def test_closestpair_statement(self, sh):
        res = run_script(
            sh,
            """
            p = LOAD 'pois';
            i = INDEX p USING quadtree;
            c = CLOSESTPAIR i;
            DUMP c;
            """,
        )
        assert len(res.dumped["c"]) == 2

    def test_foreach_projection(self, sh):
        res = run_script(
            sh,
            "p = LOAD 'pois'; names = FOREACH p GENERATE name; DUMP names;",
        )
        assert len(res.dumped["names"]) == 1200
        assert all(isinstance(n, str) for n in res.dumped["names"])

    def test_foreach_multiple_named(self, sh):
        res = run_script(
            sh,
            "p = LOAD 'pois'; t = FOREACH p GENERATE name AS n, X(geom) AS x; DUMP t;",
        )
        first = res.dumped["t"][0]
        assert first[0][0] == "n" and first[1][0] == "x"

    def test_store_roundtrip(self, sh):
        run_script(
            sh,
            "p = LOAD 'pois'; c = FILTER p BY cat == 'cafe'; STORE c INTO 'cafes';",
        )
        assert sh.fs.exists("cafes")
        assert sh.fs.num_records("cafes") == 300

    def test_pipeline_cost_accounting(self, sh):
        res = run_script(
            sh,
            """
            p = LOAD 'pois';
            i = INDEX p USING str;
            w = RANGE i RECTANGLE(0, 0, 500, 500);
            DUMP w;
            """,
        )
        assert res.total_rounds >= 3  # sample + partition + range query
        assert res.total_makespan > 0
