"""The Pigeon compiler/runner: statements to MapReduce jobs.

A script compiles once, up front, into a list of :class:`Step`\\ s, and
both the runner and EXPLAIN (:func:`repro.observe.explain.explain_pigeon`)
work from that list. RANGE, KNN, SJOIN and the one-relation operations
lower to the :class:`~repro.observe.explain.Query` of the one-line query
language and run through :func:`~repro.observe.explain.execute_query`;
so does a ``FILTER`` by ``Overlaps(geom, <constant box>)``, which over an
indexed relation is the indexed range query instead of a full scan.

Each statement materialises its result as a file in the simulated HDFS,
so downstream statements can consume it — the same materialisation model
Pig uses on Hadoop. Derived files get deterministic names, so the compiler
binds every relation to its file, and knows whether that file is indexed,
before anything runs. A ``STORE`` target is a heap file from then on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.result import OperationResult
from repro.core.system import SpatialHadoop
from repro.geometry import Point, Rectangle
from repro.mapreduce import Job
from repro.observe.explain import Query, execute_query
from repro.operations.table import BY_KEYWORD, OPERATIONS
from repro.pigeon import ast
from repro.pigeon.eval import constant_overlap_window, evaluate
from repro.pigeon.parser import parse

#: EXPLAIN's note on statements whose inputs the script itself derives.
_UNPLANNED = {
    "rangequery": "on derived relation (planned at run time)",
    "spatialjoin": "sjmr or dj, resolved at run time",
}


class PigeonError(ValueError):
    """Raised for semantic errors (unknown relations, bad plans)."""


@dataclass
class ScriptResult:
    """Outcome of one script run."""

    #: relation name -> backing file name in the simulated HDFS
    relations: Dict[str, str] = field(default_factory=dict)
    #: DUMPed relation name -> records
    dumped: Dict[str, List[Any]] = field(default_factory=dict)
    #: per-statement operation results, in execution order
    operations: List[OperationResult] = field(default_factory=list)

    @property
    def total_makespan(self) -> float:
        return sum(op.makespan for op in self.operations)

    @property
    def total_rounds(self) -> int:
        return sum(op.rounds for op in self.operations)


@dataclass
class Step:
    """One compiled statement: what it reads and writes, and how it runs."""

    statement: ast.Statement
    #: Relations read, and the file bound to each (None: never bound);
    #: a LOAD reads its file and no relation.
    sources: Tuple[str, ...]
    inputs: Tuple[Optional[str], ...]
    #: The file the step binds its target to, or STORE writes.
    output: Optional[str] = None
    #: The query-language operation the step lowers to.
    query: Optional[Query] = None
    #: A FILTER's physical plan: ``indexed-range`` or ``scan-filter``.
    strategy: Optional[str] = None
    #: Its inputs exist before the script runs, so EXPLAIN can plan it.
    plannable: bool = False
    #: What EXPLAIN shows of the step.
    detail: Dict[str, Any] = field(default_factory=dict)
    estimated: Dict[str, Any] = field(default_factory=dict)

    @property
    def kind(self) -> str:
        return type(self.statement).__name__.lower()

    @property
    def target(self) -> Optional[str]:
        return getattr(self.statement, "target", None)

    @property
    def label(self) -> str:
        return f"{self.kind.upper()} {self.target or self.sources[0]}"


def compile_script(sh: SpatialHadoop, script: str) -> List[Step]:
    """Parse ``script`` and bind each statement to files and a strategy."""
    fs = sh.fs
    relations: Dict[str, str] = {}
    records: Dict[str, Optional[int]] = {}  # relation -> its record count
    written: Dict[str, bool] = {}  # file an earlier step writes -> indexed?
    serial = itertools.count()
    steps: List[Step] = []

    def indexed(name: Optional[str]) -> bool:
        if name in written:
            return written[name]
        return fs.exists(name) and "global_index" in fs.get(name).metadata

    def derived(prefix: str, target: str, is_indexed: bool = False) -> str:
        name = f"__pigeon_{prefix}{next(serial)}_{target}"
        written[name] = is_indexed
        return name

    for stmt in parse(script).statements:
        sources: Tuple[str, ...] = ()
        inputs: Tuple[Optional[str], ...] = ()
        if isinstance(stmt, ast.Load):
            inputs = (stmt.file_name,)
        else:
            sources = (
                (stmt.left, stmt.right) if isinstance(stmt, ast.SpatialJoin)
                else (stmt.source,)
            )
            inputs = tuple(relations.get(name) for name in sources)
        ready = all(f not in written and fs.exists(f) for f in inputs)
        step = Step(stmt, sources, inputs)
        step.detail["statement"] = step.kind
        source = inputs[0]
        if isinstance(stmt, ast.Load):
            step.output = stmt.file_name
            step.detail["file"] = stmt.file_name
            if ready:
                step.estimated["records"] = fs.num_records(stmt.file_name)
        elif isinstance(stmt, ast.Index):
            step.output = derived("idx_", stmt.target, True)
            step.detail["technique"] = stmt.technique
            count = records.get(stmt.source)
            if count is not None:
                step.estimated["records"] = count
                step.estimated["partitions"] = max(
                    1, -(-count // fs.default_block_capacity)
                )
        elif isinstance(stmt, ast.Filter):
            window = constant_overlap_window(stmt.predicate)
            step.strategy = (
                "indexed-range" if window is not None and indexed(source)
                else "scan-filter"
            )
            step.detail["plan"] = step.strategy
            if window is not None:
                step.query = Query("range", [source], window=window)
                step.detail["window"] = str(window)
        elif isinstance(stmt, ast.Foreach):
            step.detail["expressions"] = len(stmt.expressions)
        elif isinstance(stmt, ast.RangeQuery):
            window = Rectangle(stmt.x1, stmt.y1, stmt.x2, stmt.y2)
            step.query = Query("range", [source], window=window)
            step.detail["window"] = str(window)
        elif isinstance(stmt, ast.Knn):
            step.query = Query(
                "knn", [source], point=Point(stmt.x, stmt.y), k=stmt.k
            )
            step.detail["point"] = f"({stmt.x}, {stmt.y})"
            step.detail["k"] = stmt.k
        elif isinstance(stmt, ast.SpatialJoin):
            step.query = Query("sjoin", list(inputs))
        elif isinstance(stmt, ast.UnaryOperation):
            step.query = Query(BY_KEYWORD[stmt.operation].name, [source])
            step.detail["operation"] = stmt.operation
        else:  # STORE / DUMP
            step.detail["source"] = stmt.source
            if isinstance(stmt, ast.Store):
                step.output = stmt.file_name
                written[stmt.file_name] = False
        step.plannable = (
            ready and step.query is not None and step.strategy != "scan-filter"
        )
        if not step.plannable and step.kind in _UNPLANNED:
            step.detail["plan"] = _UNPLANNED[step.kind]
        if step.target is not None:
            if step.output is None:
                step.output = derived("", step.target)
            relations[step.target] = step.output
            records[step.target] = step.estimated.get("records")
        steps.append(step)
    return steps


def run_script(sh: SpatialHadoop, script: str) -> ScriptResult:
    """Parse and execute ``script`` against a SpatialHadoop instance."""
    runner = ScriptRunner(sh)
    for step in compile_script(sh, script):
        runner.execute(step)
    return runner.result


def _filter_map(_key, block, ctx):
    predicate = ctx.config["predicate"]
    for record in block:
        if evaluate(predicate, record):
            ctx.write_output(record)


def _foreach_map(_key, block, ctx):
    exprs = ctx.config["exprs"]
    names = ctx.config["names"]
    for record in block:
        values = [evaluate(e, record) for e in exprs]
        if len(values) == 1 and names[0] is None:
            ctx.write_output(values[0])
        else:
            ctx.write_output(
                tuple(
                    (n, v) if n is not None else v
                    for n, v in zip(names, values)
                )
            )


class ScriptRunner:
    """Executes compiled steps in order, collecting a :class:`ScriptResult`."""

    def __init__(self, sh: SpatialHadoop):
        self.sh = sh
        self.result = ScriptResult()

    def execute(self, step: Step) -> Optional[OperationResult]:
        """Run one step; returns the operation it ran, if any."""
        with self.sh.tracer.span(
            f"pigeon:{step.kind}", kind="pigeon", target=step.target
        ):
            for name, file_name in zip(step.sources, step.inputs):
                if file_name is None:
                    raise PigeonError(f"unknown relation {name!r}")
            if step.strategy is not None:
                self.sh.tracer.event(
                    "pigeon:plan", kind="pigeon-compile", plan=step.strategy
                )
            if step.query is not None:
                op = execute_query(self.sh, step.query)
                records = OPERATIONS[step.query.op].records(op.answer)
            else:
                op, records = getattr(self, f"_run_{step.kind}")(
                    step, *step.inputs
                )
            if op is not None:
                self.result.operations.append(op)
            if step.target is not None:
                if records is not None:
                    self._replace(step.output, records)
                self.result.relations[step.target] = step.output
        return op

    def _replace(self, name: str, records: List[Any]) -> None:
        if self.sh.fs.exists(name):
            self.sh.fs.delete(name)
        self.sh.fs.create_file(name, records)

    def _run_map_only(self, source: str, name: str, map_fn, config):
        job = Job(input_file=source, map_fn=map_fn, config=config, name=name)
        result = self.sh.runner.run(job)
        return OperationResult(answer=result.output, jobs=[result])

    # Each handler returns (operation it ran, records its target holds).
    def _run_load(self, step: Step, file_name: str):
        if not self.sh.fs.exists(file_name):
            raise PigeonError(f"LOAD: no such file {file_name!r}")
        return None, None

    def _run_index(self, step: Step, source: str):
        if self.sh.fs.exists(step.output):
            self.sh.fs.delete(step.output)
        build = self.sh.index(
            source, step.output, technique=step.statement.technique
        )
        return OperationResult(answer=build.global_index, jobs=build.jobs), None

    def _run_filter(self, step: Step, source: str):
        op = self._run_map_only(
            source, "pigeon-filter", _filter_map,
            {"predicate": step.statement.predicate},
        )
        return op, list(op.answer)

    def _run_foreach(self, step: Step, source: str):
        op = self._run_map_only(
            source, "pigeon-foreach", _foreach_map,
            {"exprs": step.statement.expressions, "names": step.statement.names},
        )
        return op, op.answer

    def _run_store(self, step: Step, source: str):
        self._replace(step.output, self.sh.fs.read_records(source))
        return None, None

    def _run_dump(self, step: Step, source: str):
        self.result.dumped[step.statement.source] = (
            self.sh.fs.read_records(source)
        )
        return None, None
