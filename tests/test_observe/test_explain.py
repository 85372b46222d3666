"""EXPLAIN/ANALYZE tests: parser, estimator accuracy, determinism."""

import json

import pytest

from repro import SpatialHadoop
from repro.datagen import generate_points
from repro.geometry import Rectangle
from repro.observe import explain
from repro.observe.explain import ExplainQueryError, parse_query


def make_system(workers=1, technique=None, n=2000, capacity=100):
    sh = SpatialHadoop(num_nodes=4, block_capacity=capacity, workers=workers)
    sh.load("pts", generate_points(n, "uniform", seed=11))
    if technique is not None:
        sh.index("pts", "pts_idx", technique=technique)
    return sh


class TestParseQuery:
    def test_range(self):
        q = parse_query("range f 0,0,10,20")
        assert q.op == "range" and q.file == "f"
        assert q.window == Rectangle(0, 0, 10, 20)

    def test_range_spaces_and_parens(self):
        q = parse_query("range f (0, 0, 10, 20)")
        assert q.window == Rectangle(0, 0, 10, 20)

    def test_knn_with_k(self):
        q = parse_query("knn f 5,5 7")
        assert (q.point.x, q.point.y, q.k) == (5.0, 5.0, 7)

    def test_knn_default_k(self):
        assert parse_query("knn f 5,5").k == explain.DEFAULT_K

    def test_joins(self):
        q = parse_query("sjoin a b")
        assert q.files == ["a", "b"]
        q = parse_query("knnjoin a b 4")
        assert q.k == 4

    @pytest.mark.parametrize("text", ["knn pts (5, 5)", "knn pts 5 5"])
    def test_knn_two_numbers_are_the_point(self, text):
        q = parse_query(text)
        assert (q.point.x, q.point.y, q.k) == (5.0, 5.0, explain.DEFAULT_K)

    def test_knn_trailing_k_after_parenthesised_point(self):
        q = parse_query("knn pts (5, 6) 3")
        assert (q.point.x, q.point.y, q.k) == (5.0, 6.0, 3)

    @pytest.mark.parametrize(
        "bad",
        ["sjoin a b c d", "sjoin a b 3", "knnjoin a b x", "knnjoin a b 3 4",
         "knn pts 5,5 2.5", "skyline a b"],
    )
    def test_rejects_extra_arguments(self, bad):
        with pytest.raises(ExplainQueryError):
            parse_query(bad)

    def test_unary(self):
        for op in ("skyline", "hull", "closestpair", "farthestpair",
                   "union", "voronoi"):
            assert parse_query(f"{op} f").op == op

    @pytest.mark.parametrize(
        "bad",
        ["", "frobnicate f", "range f 1,2,3", "knn f", "skyline"],
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(ExplainQueryError):
            parse_query(bad)


class TestExplain:
    def test_indexed_range_plan(self):
        sh = make_system(technique="grid")
        jobs_before = sh.history.total_recorded
        e = sh.explain("range pts_idx 0,0,30000,30000")
        assert not e.analyzed
        assert e.plan.detail["strategy"] == "indexed"
        (f,) = e.plan.find("filter")
        assert (
            f.estimated["partitions_scanned"]
            + f.estimated["partitions_pruned"]
            == f.estimated["partitions_total"]
        )
        (j,) = e.plan.find("job")
        assert j.estimated["cost"]["total"] > 0
        # EXPLAIN must not execute anything.
        assert sh.history.total_recorded == jobs_before

    def test_full_scan_plan(self):
        sh = make_system()
        e = sh.explain("range pts 0,0,30000,30000")
        assert e.plan.detail["strategy"] == "full-scan"

    def test_json_carries_version(self):
        sh = make_system(technique="grid")
        doc = json.loads(sh.explain("skyline pts_idx").to_json())
        assert doc["version"] == 1
        assert doc["plan"]["children"]


class TestAnalyze:
    # Satellite: on uniform data the uniform-density estimator must get
    # the partition count exactly right, for grid and R-tree (STR) alike.
    @pytest.mark.parametrize("technique", ["grid", "str"])
    def test_estimated_partitions_match_actuals(self, technique):
        sh = make_system(technique=technique)
        e = sh.analyze("range pts_idx 10000,10000,60000,60000")
        assert e.analyzed
        (f,) = e.plan.find("filter")
        assert (
            f.actual["partitions_scanned"] == f.estimated["partitions_scanned"]
        )
        assert f.actual["partitions_scanned_error"] == 0
        (j,) = e.plan.find("job")
        assert j.actual["blocks_read_error"] == 0
        assert j.actual["records_read_error"] == 0

    def test_root_actuals(self):
        sh = make_system(technique="grid")
        e = sh.analyze("range pts_idx 0,0,50000,50000")
        root = e.plan
        assert root.actual["rounds"] == 1
        assert root.actual["matches"] == len(e.result.answer)
        assert 0 <= root.actual["selectivity"] <= 1
        assert root.actual["makespan_s"] > 0
        assert root.actual["wall_s"] >= 0

    @pytest.mark.usefixtures("pool_pinned")
    def test_serial_and_parallel_plans_normalize_equal(self):
        serial = make_system(workers=1, technique="grid")
        parallel = make_system(workers=4, technique="grid")
        try:
            a = serial.analyze("knn pts_idx 50000,50000 25")
            b = parallel.analyze("knn pts_idx 50000,50000 25")
        finally:
            parallel.runner.close()
        assert a.plan.normalized() == b.plan.normalized()

    def test_publishes_metrics(self):
        sh = make_system(technique="grid")
        sh.analyze("range pts_idx 0,0,50000,50000")
        snap = sh.metrics.snapshot()
        assert snap["counters"]["EXPLAIN_ANALYZE_RUNS"] == 1
        assert "explain_partitions_est" in snap["gauges"]
        assert "explain_records_error_pct" in snap["gauges"]

    def test_restores_null_tracer(self):
        sh = make_system(technique="grid")
        sh.analyze("range pts_idx 0,0,50000,50000")
        assert not sh.tracer.enabled

    def test_keeps_live_tracer(self):
        sh = make_system(technique="grid")
        tracer = sh.enable_tracing()
        sh.analyze("range pts_idx 0,0,50000,50000")
        assert sh.tracer is tracer and tracer.enabled

    def test_every_operation_analyzes(self):
        sh = make_system(technique="grid")
        sh.load("pts2", generate_points(500, "uniform", seed=3))
        sh.index("pts2", "idx2", technique="str")
        queries = [
            "count pts_idx 0,0,50000,50000",
            "knn pts_idx 100,100 5",
            "sjoin pts_idx idx2",
            "knnjoin pts_idx idx2 3",
            "skyline pts_idx",
            "hull pts_idx",
            "closestpair pts_idx",
            "farthestpair pts_idx",
            "voronoi pts_idx",
            "skyline pts",
        ]
        for q in queries:
            e = sh.analyze(q)
            assert e.analyzed, q
            json.loads(e.to_json())  # always serialisable


class TestExplainPigeon:
    SCRIPT = """
        a = LOAD 'pts_idx';
        b = FILTER a BY Overlaps(geom, MakeBox(0, 0, 30000, 30000));
        s = SKYLINE a;
        DUMP s;
    """

    def test_explain_marks_indexed_filter(self):
        sh = make_system(technique="grid")
        e = explain.explain_pigeon(sh, self.SCRIPT)
        nodes = {n.name: n for n in e.plan.children}
        assert nodes["FILTER b"].detail["plan"] == "indexed-range"
        # The FILTER embeds a full range-query subplan.
        assert nodes["FILTER b"].find("filter")

    def test_explain_scan_filter_fallback(self):
        sh = make_system(technique="grid")
        script = "a = LOAD 'pts'; b = FILTER a BY X(geom) > 10; DUMP b;"
        e = explain.explain_pigeon(sh, script)
        (f,) = [n for n in e.plan.children if n.name.startswith("FILTER")]
        assert f.detail["plan"] == "scan-filter"

    def test_analyze_annotates_statements(self):
        sh = make_system(technique="grid")
        e = explain.explain_pigeon(sh, self.SCRIPT, analyze=True)
        assert e.analyzed
        assert e.plan.actual["statements"] == 4
        nodes = {n.name: n for n in e.plan.children}
        assert nodes["FILTER b"].actual["rounds"] == 1
        assert nodes["UNARYOPERATION s"].actual["output_rows"] > 0
        json.loads(e.to_json())

    def test_analyze_rounds_are_each_statements_own(self):
        from repro.pigeon import run_script

        script = """
            a = LOAD 'pts';
            i = INDEX a USING grid;
            w = FILTER i BY Overlaps(geom, MakeBox(0, 0, 600000, 600000));
            x = FILTER w BY X(geom) > 100000;
            f = FOREACH x GENERATE X(geom) AS x;
            n = KNN i POINT(500000, 500000) K 5;
            j = SJOIN w, x;
            s = SKYLINE i;
            STORE s INTO 'sky';
        """
        ran = run_script(make_system(), script)
        expected = [op.rounds for op in ran.operations]
        e = explain.explain_pigeon(make_system(), script, analyze=True)
        annotated = [n for n in e.plan.children if "rounds" in n.actual]
        assert [n.name for n in annotated] == [
            "INDEX i", "FILTER w", "FILTER x", "FOREACH f", "KNN n",
            "SPATIALJOIN j", "UNARYOPERATION s",
        ]
        assert [n.actual["rounds"] for n in annotated] == expected
        assert all(rounds >= 1 for rounds in expected)
        assert len(set(expected)) > 1  # rounds tell the statements apart


class TestAnalyzeFaultActuals:
    def test_retries_surface_in_job_actuals(self):
        sh = make_system(technique="str")
        sh.runner.set_faults("crash:map:0,hang:map:1:0:30")
        sh.runner.task_timeout = 10.0
        e = sh.analyze("range pts_idx 0,0,1000000,1000000")
        jobs = e.plan.find("job")
        assert jobs
        merged = {}
        for j in jobs:
            for key in ("tasks_retried", "tasks_timed_out"):
                merged[key] = merged.get(key, 0) + j.actual.get(key, 0)
        assert merged["tasks_retried"] >= 2
        assert merged["tasks_timed_out"] >= 1

    def test_clean_runs_omit_fault_actuals(self):
        sh = make_system(technique="str")
        e = sh.analyze("range pts_idx 0,0,90000,90000")
        for j in e.plan.find("job"):
            assert "tasks_retried" not in j.actual
            assert "tasks_speculative" not in j.actual
