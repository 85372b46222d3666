"""EXPLAIN/ANALYZE for spatial operations and Pigeon scripts.

EXPLAIN builds a :class:`~repro.observe.plan.PlanNode` tree for a query
without reading any record data: which strategy the dispatcher will pick
(indexed vs. full scan), which partitions the global-index filter keeps,
the predicted kNN round protocol, and a simulated-cost breakdown from
:meth:`~repro.mapreduce.cluster.ClusterModel.job_cost`.

ANALYZE executes the same query under the span tracer and re-annotates
the tree with actuals — partitions pruned vs. scanned, records read,
selectivity, per-node wall/CPU time — plus estimate-vs-actual errors, the
estimator's report card. Counts in an ANALYZE tree are backend
independent; :meth:`PlanNode.normalized` strips the timing keys so serial
and ``--workers N`` runs compare equal.

Queries use a small text language (one line, shell friendly)::

    range <file> <x1,y1,x2,y2>      count <file> <x1,y1,x2,y2>
    knn <file> <x,y> [k]            sjoin <left> <right>
    knnjoin <left> <right> [k]      skyline|hull|closestpair|
                                    farthestpair|union|voronoi <file>

NOTE: this module imports the operations layer, which imports
``repro.observe.plan`` — so it is deliberately NOT re-exported from
``repro.observe``'s package initialiser. Import it as a module::

    from repro.observe import explain
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.geometry import Point, Rectangle
from repro.observe.plan import PLAN_VERSION, PlanNode, attach_error

#: Default k for knn / knnjoin queries that do not spell one out.
DEFAULT_K = 10

#: Operations that take a single file and no further arguments.
_UNARY_OPS = {
    "skyline": "Skyline",
    "hull": "ConvexHull",
    "closestpair": "ClosestPair",
    "farthestpair": "FarthestPair",
    "union": "Union",
    "voronoi": "Voronoi",
}


class ExplainQueryError(ValueError):
    """Raised for malformed query text."""


@dataclass
class Query:
    """A parsed explainable query."""

    op: str
    files: List[str]
    window: Optional[Rectangle] = None
    point: Optional[Point] = None
    k: int = DEFAULT_K

    @property
    def file(self) -> str:
        return self.files[0]


def parse_query(text: str) -> Query:
    """Parse the one-line query language (see the module docstring)."""
    tokens = text.replace("(", " ").replace(")", " ").split()
    if not tokens:
        raise ExplainQueryError("empty query")
    op = tokens[0].lower()
    args = tokens[1:]

    def numbers(parts: List[str], count: int) -> List[float]:
        flat: List[str] = []
        for part in parts:
            flat.extend(p for p in part.split(",") if p)
        if len(flat) != count:
            raise ExplainQueryError(
                f"{op!r} needs {count} coordinate(s), found {len(flat)}"
            )
        try:
            return [float(p) for p in flat]
        except ValueError as exc:
            raise ExplainQueryError(f"bad coordinate in {parts!r}") from exc

    if op in ("range", "count"):
        if len(args) < 2:
            raise ExplainQueryError(f"usage: {op} <file> <x1,y1,x2,y2>")
        x1, y1, x2, y2 = numbers(args[1:], 4)
        return Query(op=op, files=[args[0]], window=Rectangle(x1, y1, x2, y2))
    if op == "knn":
        if len(args) < 2:
            raise ExplainQueryError("usage: knn <file> <x,y> [k]")
        k = DEFAULT_K
        coords = args[1:]
        if len(coords) > 1 and coords[-1].isdigit() and "," not in coords[-1]:
            k = int(coords[-1])
            coords = coords[:-1]
        x, y = numbers(coords, 2)
        return Query(op=op, files=[args[0]], point=Point(x, y), k=k)
    if op in ("sjoin", "knnjoin"):
        if len(args) < 2:
            raise ExplainQueryError(f"usage: {op} <left> <right>" + (
                " [k]" if op == "knnjoin" else ""
            ))
        k = DEFAULT_K
        if op == "knnjoin" and len(args) >= 3 and args[2].isdigit():
            k = int(args[2])
        return Query(op=op, files=[args[0], args[1]], k=k)
    if op in _UNARY_OPS:
        if len(args) != 1:
            raise ExplainQueryError(f"usage: {op} <file>")
        return Query(op=op, files=[args[0]])
    raise ExplainQueryError(
        f"unknown operation {op!r}; expected one of: range, count, knn, "
        f"sjoin, knnjoin, {', '.join(sorted(_UNARY_OPS))}"
    )


# ----------------------------------------------------------------------
# Explanation container
# ----------------------------------------------------------------------
@dataclass
class Explanation:
    """An EXPLAIN (or ANALYZE) result: the plan tree plus provenance."""

    query: str
    plan: PlanNode
    analyzed: bool = False
    result: Any = None
    warnings: List[str] = field(default_factory=list)

    def render(self) -> str:
        mode = "ANALYZE" if self.analyzed else "EXPLAIN"
        lines = [f"{mode} {self.query}", self.plan.render()]
        for warning in self.warnings:
            lines.append(f"warning: {warning}")
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "version": PLAN_VERSION,
            "query": self.query,
            "analyzed": self.analyzed,
            "plan": self.plan.to_dict(),
            "warnings": list(self.warnings),
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, default=str)


# ----------------------------------------------------------------------
# EXPLAIN: plan without executing
# ----------------------------------------------------------------------
def build_plan(sh: Any, query: Query) -> PlanNode:
    """The plan tree for ``query`` against SpatialHadoop instance ``sh``."""
    from repro import operations as ops

    return _dispatch_plan(ops, sh.runner, query)


def _dispatch_plan(ops, runner: Any, query: Query) -> PlanNode:
    if query.op == "range":
        return ops.plan_range_query(runner, query.file, query.window)
    if query.op == "count":
        return ops.plan_range_count(runner, query.file, query.window)
    if query.op == "knn":
        return ops.plan_knn(runner, query.file, query.point, query.k)
    if query.op == "sjoin":
        return ops.plan_spatial_join(runner, query.files[0], query.files[1])
    if query.op == "knnjoin":
        return ops.plan_knn_join(
            runner, query.files[0], query.files[1], query.k
        )
    planner = {
        "skyline": ops.plan_skyline,
        "hull": ops.plan_convex_hull,
        "closestpair": ops.plan_closest_pair,
        "farthestpair": ops.plan_farthest_pair,
        "union": ops.plan_union,
        "voronoi": ops.plan_voronoi,
    }[query.op]
    return planner(runner, query.file)


def execute_query(sh: Any, query: Query) -> Any:
    """Run ``query`` through the normal facade dispatch."""
    if query.op == "range":
        return sh.range_query(query.file, query.window)
    if query.op == "count":
        return sh.range_count(query.file, query.window)
    if query.op == "knn":
        return sh.knn(query.file, query.point, query.k)
    if query.op == "sjoin":
        return sh.spatial_join(query.files[0], query.files[1])
    if query.op == "knnjoin":
        return sh.knn_join(query.files[0], query.files[1], query.k)
    method = {
        "skyline": sh.skyline,
        "hull": sh.convex_hull,
        "closestpair": sh.closest_pair,
        "farthestpair": sh.farthest_pair,
        "union": sh.union,
        "voronoi": sh.voronoi,
    }[query.op]
    return method(query.file)


def explain_query(sh: Any, text: str) -> Explanation:
    """EXPLAIN: the plan tree for ``text``, without executing it."""
    query = parse_query(text)
    return Explanation(query=text, plan=build_plan(sh, query))


# ----------------------------------------------------------------------
# ANALYZE: execute under the tracer, annotate with actuals
# ----------------------------------------------------------------------
def analyze_query(sh: Any, text: str) -> Explanation:
    """ANALYZE: plan, execute, and annotate the plan with actuals."""
    query = parse_query(text)
    plan = build_plan(sh, query)

    own_tracer = not sh.tracer.enabled
    if own_tracer:
        sh.enable_tracing()
    base = len(sh.tracer.records())
    try:
        result = execute_query(sh, query)
        trace = sh.tracer.records()[base:]
    finally:
        if own_tracer:
            sh.disable_tracing()

    annotate_plan(plan, result, trace, sh.runner.cluster)
    _record_analyze_metrics(sh.metrics, plan)
    return Explanation(query=text, plan=plan, analyzed=True, result=result)


def _rows_of(answer: Any) -> int:
    if answer is None:
        return 0
    if isinstance(answer, (int, float)):
        return int(answer)
    if hasattr(answer, "regions"):  # VoronoiResult
        return len(answer.regions)
    try:
        return len(answer)
    except TypeError:
        return 1


def _span_index(trace: List[Dict[str, Any]]) -> Tuple[
    List[Dict[str, Any]], Dict[int, float]
]:
    """Job spans in execution order + per-job-span summed task CPU."""
    spans = [r for r in trace if r.get("type") == "span"]
    parent = {r["id"]: r.get("parent") for r in spans}
    kind_by_id = {r["id"]: r["kind"] for r in spans}
    job_spans = [r for r in spans if r["kind"] == "job"]
    cpu: Dict[int, float] = {r["id"]: 0.0 for r in job_spans}
    for r in spans:
        if r["kind"] != "task":
            continue
        node = parent.get(r["id"])
        while node is not None and kind_by_id.get(node) != "job":
            node = parent.get(node)
        if node in cpu:
            cpu[node] += r["dur"]
    return job_spans, cpu


def annotate_plan(
    plan: PlanNode,
    result: Any,
    trace: List[Dict[str, Any]],
    cluster: Any,
) -> None:
    """Fold an executed :class:`OperationResult` back into ``plan``.

    Planned job nodes are zipped with the executed jobs in order; extra
    executed jobs are appended as unplanned nodes, planned-but-unexecuted
    nodes (e.g. a predicted second kNN round that never ran) are marked
    ``executed: False``.
    """
    job_nodes = plan.find("job")
    jobs = list(result.jobs)
    job_spans, job_cpu = _span_index(trace)

    for i, job in enumerate(jobs):
        if i < len(job_nodes):
            node = job_nodes[i]
        else:
            name = (
                job_spans[i]["name"] if i < len(job_spans) else "job:unplanned"
            )
            node = plan.add(PlanNode(name, kind="job"))
        c = job.counters
        node.actual.update(
            {
                "blocks_read": c.get("BLOCKS_READ"),
                "blocks_pruned": c.get("BLOCKS_PRUNED"),
                "records_read": c.get("MAP_INPUT_RECORDS"),
                "output_records": c.get("OUTPUT_RECORDS"),
                "shuffle_records": c.get("SHUFFLE_RECORDS"),
                "map_tasks": c.get("MAP_TASKS"),
                "reduce_tasks": c.get("REDUCE_TASKS"),
                "makespan_s": job.makespan,
                "cost": cluster.job_cost(
                    job.map_tasks, job.reduce_tasks, job.shuffle_records
                ),
            }
        )
        fault = getattr(job, "fault_summary", None) or {}
        for summary_key, actual_key in (
            ("retries", "tasks_retried"),
            ("speculative", "tasks_speculative"),
            ("timeouts", "tasks_timed_out"),
        ):
            if fault.get(summary_key):
                node.actual[actual_key] = int(fault[summary_key])
        if i < len(job_spans):
            node.actual["wall_s"] = job_spans[i]["dur"]
            node.actual["cpu_s"] = job_cpu.get(job_spans[i]["id"], 0.0)
        # Profiled phase breakdown; the "_s" suffix keeps the timing out
        # of normalized() output like every other wall-clock actual.
        phases = getattr(job, "phase_profile", None) or {}
        if phases:
            node.actual["phases_s"] = {
                key: round(entry["s"], 6)
                for key, entry in sorted(phases.items())
            }
        for key in ("blocks_read", "records_read", "shuffle_records"):
            attach_error(node, key)
    for node in job_nodes[len(jobs):]:
        node.actual["executed"] = False

    # Filter nodes take their actuals from the first executed job under
    # the same parent: the splitter is what enforced the filter.
    for parent in plan.walk():
        filters = [n for n in parent.children if n.kind == "filter"]
        executed = [
            n
            for n in parent.children
            if n.kind == "job" and n.actual.get("executed") is not False
            and n.actual
        ]
        if not filters or not executed:
            continue
        job_actual = executed[0].actual
        for node in filters:
            node.actual.update(
                {
                    "partitions_scanned": job_actual.get("blocks_read", 0),
                    "partitions_pruned": job_actual.get("blocks_pruned", 0),
                }
            )
            for key in ("partitions_scanned", "partitions_pruned"):
                attach_error(node, key)

    # Round nodes (kNN) aggregate their child jobs.
    for node in plan.find("round"):
        children = [n for n in node.children if n.kind == "job" and n.actual]
        if children and children[0].actual.get("executed") is not False:
            node.actual["partitions_scanned"] = sum(
                n.actual.get("blocks_read", 0) for n in children
            )
            attach_error(node, "partitions_scanned")
        elif node.estimated:
            node.actual["executed"] = False

    # Root: rounds, output rows, selectivity, operation-level times.
    rows = _rows_of(result.answer)
    plan.actual["rounds"] = len(jobs)
    attach_error(plan, "rounds")
    for key in ("matches", "count"):
        if key in plan.estimated:
            plan.actual[key] = rows
            attach_error(plan, key)
            break
    else:
        plan.actual["rows"] = rows
    records_read = sum(
        j.counters.get("MAP_INPUT_RECORDS") for j in jobs
    )
    plan.actual["records_read"] = records_read
    plan.actual["selectivity"] = (
        round(rows / records_read, 6) if records_read else 0.0
    )
    plan.actual["makespan_s"] = result.makespan
    op_spans = [
        r
        for r in trace
        if r.get("type") == "span" and r.get("kind") == "operation"
    ]
    if op_spans:
        plan.actual["wall_s"] = op_spans[-1]["dur"]


def _record_analyze_metrics(metrics: Any, plan: PlanNode) -> None:
    """Publish the estimator's report card into the metrics registry."""
    if metrics is None:
        return
    est_parts = act_parts = est_records = act_records = 0
    for node in plan.find("job"):
        est_parts += int(node.estimated.get("blocks_read", 0) or 0)
        act_parts += int(node.actual.get("blocks_read", 0) or 0)
        est_records += int(node.estimated.get("records_read", 0) or 0)
        act_records += int(node.actual.get("records_read", 0) or 0)
    metrics.inc("EXPLAIN_ANALYZE_RUNS")
    metrics.set_gauge("explain_partitions_est", est_parts)
    metrics.set_gauge("explain_partitions_actual", act_parts)
    metrics.set_gauge(
        "explain_records_error_pct",
        round(
            100.0 * abs(act_records - est_records) / max(1, act_records), 3
        ),
    )


# ----------------------------------------------------------------------
# Pigeon scripts
# ----------------------------------------------------------------------
#: Statement types whose execution appends to ScriptResult.operations.
_OP_STATEMENTS = (
    "Index", "Filter", "Foreach", "RangeQuery", "Knn", "SpatialJoin",
    "UnaryOperation",
)


def explain_pigeon(sh: Any, script: str, analyze: bool = False) -> Explanation:
    """EXPLAIN (or ANALYZE) every statement of a Pigeon script.

    EXPLAIN tracks relations symbolically: a LOAD binds its real file, so
    statements over loaded relations get full operation subplans; derived
    relations (the output of a FILTER, say) do not exist yet at plan
    time, so their statements report the chosen strategy and what is
    known (e.g. the predicted partition count of an INDEX).
    """
    from repro.pigeon import ast
    from repro.pigeon.eval import constant_overlap_window
    from repro.pigeon.parser import parse

    parsed = parse(script)
    root = PlanNode("PigeonScript", kind="script")
    # relation -> (backing file if it already exists in fs, else None,
    #              predicted record count or None, indexed?)
    rels: Dict[str, Tuple[Optional[str], Optional[int], bool]] = {}
    fs = sh.fs
    runner = sh.runner

    def known_indexed(file_name: Optional[str]) -> bool:
        return (
            file_name is not None
            and fs.exists(file_name)
            and "global_index" in fs.get(file_name).metadata
        )

    for stmt in parsed.statements:
        kind_name = type(stmt).__name__
        node = root.add(
            PlanNode(
                f"{kind_name.upper()} "
                f"{getattr(stmt, 'target', getattr(stmt, 'source', ''))}",
                kind="statement",
                detail={"statement": kind_name.lower()},
            )
        )
        if isinstance(stmt, ast.Load):
            exists = fs.exists(stmt.file_name)
            records = fs.num_records(stmt.file_name) if exists else None
            rels[stmt.target] = (
                stmt.file_name if exists else None,
                records,
                known_indexed(stmt.file_name),
            )
            node.detail["file"] = stmt.file_name
            if records is not None:
                node.estimated["records"] = records
            continue
        if isinstance(stmt, ast.Index):
            file_name, records, _ = rels.get(stmt.source, (None, None, False))
            node.detail["technique"] = stmt.technique
            if records is not None:
                capacity = fs.default_block_capacity
                node.estimated["records"] = records
                node.estimated["partitions"] = max(
                    1, -(-records // capacity)
                )
            rels[stmt.target] = (None, records, True)
            continue
        if isinstance(stmt, ast.Filter):
            file_name, records, indexed = rels.get(
                stmt.source, (None, None, False)
            )
            window = constant_overlap_window(stmt.predicate)
            accelerable = window is not None and (
                indexed or known_indexed(file_name)
            )
            node.detail["plan"] = (
                "indexed-range" if accelerable else "scan-filter"
            )
            if window is not None:
                node.detail["window"] = str(window)
            if known_indexed(file_name) and window is not None:
                from repro.operations import plan_range_query

                node.add(plan_range_query(runner, file_name, window))
            rels[stmt.target] = (None, None, False)
            continue
        if isinstance(stmt, ast.RangeQuery):
            file_name, _, _ = rels.get(stmt.source, (None, None, False))
            window = Rectangle(stmt.x1, stmt.y1, stmt.x2, stmt.y2)
            node.detail["window"] = str(window)
            if file_name is not None and fs.exists(file_name):
                from repro.operations import plan_range_query

                node.add(plan_range_query(runner, file_name, window))
            else:
                node.detail["plan"] = "on derived relation (planned at run time)"
            rels[stmt.target] = (None, None, False)
            continue
        if isinstance(stmt, ast.Knn):
            file_name, _, _ = rels.get(stmt.source, (None, None, False))
            node.detail["point"] = f"({stmt.x}, {stmt.y})"
            node.detail["k"] = stmt.k
            if file_name is not None and fs.exists(file_name):
                from repro.operations import plan_knn

                node.add(
                    plan_knn(runner, file_name, Point(stmt.x, stmt.y), stmt.k)
                )
            rels[stmt.target] = (None, None, False)
            continue
        if isinstance(stmt, ast.SpatialJoin):
            left, _, _ = rels.get(stmt.left, (None, None, False))
            right, _, _ = rels.get(stmt.right, (None, None, False))
            if (
                left is not None and right is not None
                and fs.exists(left) and fs.exists(right)
            ):
                from repro.operations import plan_spatial_join

                node.add(plan_spatial_join(runner, left, right))
            else:
                node.detail["plan"] = "sjmr or dj, resolved at run time"
            rels[stmt.target] = (None, None, False)
            continue
        if isinstance(stmt, ast.UnaryOperation):
            file_name, _, _ = rels.get(stmt.source, (None, None, False))
            node.detail["operation"] = stmt.operation
            op_key = {
                "SKYLINE": "skyline",
                "CONVEXHULL": "hull",
                "UNION": "union",
                "CLOSESTPAIR": "closestpair",
                "FARTHESTPAIR": "farthestpair",
                "VORONOI": "voronoi",
            }.get(stmt.operation)
            if (
                op_key is not None
                and file_name is not None
                and fs.exists(file_name)
            ):
                try:
                    node.add(
                        build_plan(sh, Query(op=op_key, files=[file_name]))
                    )
                except ValueError as exc:
                    node.detail["note"] = str(exc)
            rels[stmt.target] = (None, None, False)
            continue
        if isinstance(stmt, (ast.Store, ast.Dump)):
            node.detail["source"] = stmt.source
            continue
        if isinstance(stmt, ast.Foreach):
            node.detail["expressions"] = len(stmt.expressions)
            rels[stmt.target] = (None, None, False)
            continue

    explanation = Explanation(query=script.strip(), plan=root)
    if not analyze:
        return explanation

    from repro.pigeon.runner import run_script

    own_tracer = not sh.tracer.enabled
    if own_tracer:
        sh.enable_tracing()
    try:
        script_result = run_script(sh, script)
    finally:
        if own_tracer:
            sh.disable_tracing()

    # Zip op-producing statements with the per-statement operation results.
    producing = [
        n
        for n, stmt in zip(root.children, parsed.statements)
        if type(stmt).__name__ in _OP_STATEMENTS
    ]
    for node, op in zip(producing, script_result.operations):
        c = op.counters
        node.actual.update(
            {
                "rounds": len(op.jobs),
                "records_read": c.get("MAP_INPUT_RECORDS"),
                "partitions_scanned": c.get("BLOCKS_READ"),
                "partitions_pruned": c.get("BLOCKS_PRUNED"),
                "output_rows": _rows_of(op.answer),
                "makespan_s": op.makespan,
            }
        )
    root.actual.update(
        {
            "statements": len(parsed.statements),
            "jobs": sum(len(op.jobs) for op in script_result.operations),
            "makespan_s": script_result.total_makespan,
        }
    )
    explanation.analyzed = True
    explanation.result = script_result
    return explanation
