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

The operations are the entries of :mod:`repro.operations.table`; the
parser, the planner dispatch and the executor dispatch below look them
up there.

NOTE: this module imports the operations layer, which imports
``repro.observe.plan`` — so it is deliberately NOT re-exported from
``repro.observe``'s package initialiser. Import it as a module::

    from repro.observe import explain
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import operations
from repro.geometry import Point, Rectangle
from repro.observe.plan import PLAN_VERSION, PlanNode, attach_error
from repro.operations.table import OPERATIONS, Operation

#: Default k for knn / knnjoin queries that do not spell one out.
DEFAULT_K = 10

#: Shape argument -> (coordinates it reads, the shape they make).
_SHAPES = {"window": (4, Rectangle), "point": (2, Point)}
#: Query-line spelling of each argument.
USAGE = {"window": "<x1,y1,x2,y2>", "point": "<x,y>", "k": "[k]"}


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

    def arguments(self) -> Tuple[Any, ...]:
        """The files, then the operation's arguments: what both its
        facade method and its planner take after the runner."""
        args = OPERATIONS[self.op].args
        return (*self.files, *(getattr(self, name) for name in args))


def parse_query(text: str) -> Query:
    """Parse the one-line query language (see the module docstring)."""
    tokens = text.replace("(", " ").replace(")", " ").split()
    if not tokens:
        raise ExplainQueryError("empty query")
    name = tokens[0].lower()
    operation = OPERATIONS.get(name)
    if operation is None:
        raise ExplainQueryError(
            f"unknown operation {name!r}; expected one of: "
            + ", ".join(OPERATIONS)
        )
    files = tokens[1:1 + operation.files]
    numbers = [
        p for part in tokens[1 + operation.files:] for p in part.split(",") if p
    ]
    # A shape argument (window or point) comes first in ``args``.
    shape = operation.args[0] if operation.args else None
    coords = _SHAPES.get(shape, (0,))[0]
    if len(files) < operation.files or (coords and not numbers):
        raise _usage(operation)
    query = Query(op=name, files=files)
    # A trailing k only when more numbers remain than the shape reads.
    if "k" in operation.args and len(numbers) > coords:
        k = numbers.pop()
        if not k.isdigit():
            raise ExplainQueryError(f"k must be a whole number, found {k!r}")
        query.k = int(k)
    if not coords and numbers:
        raise _usage(operation)
    if coords:
        setattr(query, shape, parse_shape(shape, numbers, name))
    return query


def parse_shape(shape: str, numbers: List[str], op: str = "") -> Any:
    """The ``window`` or ``point`` whose coordinates ``numbers`` spell."""
    coords, make = _SHAPES[shape]
    if len(numbers) != coords:
        raise ExplainQueryError(
            f"{op or shape!r} needs {coords} coordinate(s), "
            f"found {len(numbers)}"
        )
    try:
        values = [float(p) for p in numbers]
    except ValueError as exc:
        raise ExplainQueryError(f"bad coordinate in {numbers!r}") from exc
    return make(*values)


def _usage(operation: Operation) -> ExplainQueryError:
    files = ["<file>"] if operation.files == 1 else ["<left>", "<right>"]
    return ExplainQueryError(" ".join(
        ["usage:", operation.name, *files, *map(USAGE.get, operation.args)]
    ))


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
    planner = getattr(operations, OPERATIONS[query.op].planner)
    return planner(sh.runner, *query.arguments())


def execute_query(sh: Any, query: Query, **options: Any) -> Any:
    """Run ``query`` through the normal facade dispatch; ``options`` are
    keyword arguments of the facade method (``union(enhanced=True)``)."""
    method = getattr(sh, OPERATIONS[query.op].method)
    return method(*query.arguments(), **options)


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
    with _traced(sh):
        base = len(sh.tracer.records())
        result = execute_query(sh, query)
        trace = sh.tracer.records()[base:]

    annotate_plan(plan, result, trace, sh.runner.cluster)
    _record_analyze_metrics(sh.metrics, plan)
    return Explanation(query=text, plan=plan, analyzed=True, result=result)


@contextmanager
def _traced(sh: Any) -> Iterator[None]:
    """Run the body under a live tracer, restoring a null one after."""
    own_tracer = not sh.tracer.enabled
    if own_tracer:
        sh.enable_tracing()
    try:
        yield
    finally:
        if own_tracer:
            sh.disable_tracing()


def rows_of(answer: Any) -> int:
    """Output rows of an operation's answer (a count is its own rows)."""
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
    rows = rows_of(result.answer)
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
def explain_pigeon(sh: Any, script: str, analyze: bool = False) -> Explanation:
    """EXPLAIN (or ANALYZE) a Pigeon script: render its compiled steps.

    The steps are the ones :func:`repro.pigeon.runner.compile_script`
    hands the runner, so each node reports the strategy the run will
    take. A step whose input files exist before the script runs also gets
    its operation's full plan; ANALYZE runs the steps and annotates each
    node with what its step produced.
    """
    from repro.pigeon.runner import ScriptRunner, compile_script

    steps = compile_script(sh, script)
    root = PlanNode("PigeonScript", kind="script")
    for step in steps:
        node = root.add(PlanNode(
            step.label, kind="statement", detail=dict(step.detail),
            estimated=dict(step.estimated),
        ))
        if step.plannable:
            try:
                node.add(build_plan(sh, step.query))
            except ValueError as exc:
                node.detail["note"] = str(exc)
    explanation = Explanation(query=script.strip(), plan=root)
    if not analyze:
        return explanation

    runner = ScriptRunner(sh)
    with _traced(sh):
        for step, node in zip(steps, root.children):
            op = runner.execute(step)
            if op is None:
                continue
            c = op.counters
            node.actual.update(
                {
                    "rounds": len(op.jobs),
                    "records_read": c.get("MAP_INPUT_RECORDS"),
                    "partitions_scanned": c.get("BLOCKS_READ"),
                    "partitions_pruned": c.get("BLOCKS_PRUNED"),
                    "output_rows": rows_of(op.answer),
                    "makespan_s": op.makespan,
                }
            )
    result = runner.result
    root.actual.update(
        {
            "statements": len(steps),
            "jobs": sum(len(op.jobs) for op in result.operations),
            "makespan_s": result.total_makespan,
        }
    )
    explanation.analyzed = True
    explanation.result = result
    return explanation
