"""The Pigeon compiler/runner: statements to MapReduce jobs.

Each statement materialises its result as a file in the simulated HDFS, so
downstream statements can consume it — the same materialisation model Pig
uses on Hadoop. The planner recognises indexable patterns: a ``FILTER`` by
``Overlaps(geom, <constant box>)`` over an indexed relation compiles to the
indexed range query instead of a full scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.result import OperationResult
from repro.core.system import SpatialHadoop
from repro.geometry import Point, Rectangle
from repro.mapreduce import Job
from repro.pigeon import ast
from repro.pigeon.eval import constant_overlap_window, evaluate
from repro.pigeon.parser import parse


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


def run_script(sh: SpatialHadoop, script: str) -> ScriptResult:
    """Parse and execute ``script`` against a SpatialHadoop instance."""
    return _Runner(sh).run(parse(script))


class _Runner:
    def __init__(self, sh: SpatialHadoop):
        self.sh = sh
        self.result = ScriptResult()
        self._temp_counter = 0

    # ------------------------------------------------------------------
    def run(self, script: ast.Script) -> ScriptResult:
        for statement in script.statements:
            self._execute(statement)
        return self.result

    def _file_of(self, relation: str) -> str:
        try:
            return self.result.relations[relation]
        except KeyError:
            raise PigeonError(f"unknown relation {relation!r}") from None

    def _materialize(self, target: str, records: List[Any]) -> str:
        name = f"__pigeon_{self._temp_counter}_{target}"
        self._temp_counter += 1
        if self.sh.fs.exists(name):
            self.sh.fs.delete(name)
        self.sh.fs.create_file(name, records)
        self.result.relations[target] = name
        return name

    def _record(self, op: OperationResult) -> OperationResult:
        self.result.operations.append(op)
        return op

    # ------------------------------------------------------------------
    def _execute(self, stmt: ast.Statement) -> None:
        handler = {
            ast.Load: self._run_load,
            ast.Index: self._run_index,
            ast.Filter: self._run_filter,
            ast.Foreach: self._run_foreach,
            ast.RangeQuery: self._run_range,
            ast.Knn: self._run_knn,
            ast.SpatialJoin: self._run_join,
            ast.UnaryOperation: self._run_unary,
            ast.Store: self._run_store,
            ast.Dump: self._run_dump,
        }[type(stmt)]
        with self.sh.tracer.span(
            f"pigeon:{type(stmt).__name__.lower()}",
            kind="pigeon",
            target=getattr(stmt, "target", None),
        ):
            handler(stmt)

    def _run_load(self, stmt: ast.Load) -> None:
        if not self.sh.fs.exists(stmt.file_name):
            raise PigeonError(f"LOAD: no such file {stmt.file_name!r}")
        self.result.relations[stmt.target] = stmt.file_name

    def _run_index(self, stmt: ast.Index) -> None:
        source = self._file_of(stmt.source)
        out = f"__pigeon_idx_{self._temp_counter}_{stmt.target}"
        self._temp_counter += 1
        if self.sh.fs.exists(out):
            self.sh.fs.delete(out)
        build = self.sh.index(source, out, technique=stmt.technique)
        self.result.relations[stmt.target] = out
        self.result.operations.append(
            OperationResult(answer=build.global_index, jobs=build.jobs)
        )

    # -- FILTER ---------------------------------------------------------
    def _run_filter(self, stmt: ast.Filter) -> None:
        source = self._file_of(stmt.source)
        window = constant_overlap_window(stmt.predicate)
        # The compile step: record which physical plan the planner chose,
        # so traces show *why* a FILTER was (or was not) index-accelerated.
        # A window over a heap file is a scan, as EXPLAIN reports it.
        indexed = (
            window is not None
            and "global_index" in self.sh.fs.get(source).metadata
        )
        self.sh.tracer.event(
            "pigeon:plan",
            kind="pigeon-compile",
            plan="indexed-range" if indexed else "scan-filter",
        )
        if window is not None:
            op = self.sh.range_query(source, window)
        else:
            op = self._scan_filter(source, stmt.predicate)
        self._record(op)
        self._materialize(stmt.target, list(op.answer))

    def _scan_filter(self, source: str, predicate: ast.Expr) -> OperationResult:
        def map_fn(_key, records, ctx):
            for record in records:
                if evaluate(ctx.config["predicate"], record):
                    ctx.write_output(record)

        job = Job(
            input_file=source,
            map_fn=map_fn,
            config={"predicate": predicate},
            name="pigeon-filter",
        )
        result = self.sh.runner.run(job)
        return OperationResult(answer=result.output, jobs=[result])

    # -- FOREACH --------------------------------------------------------
    def _run_foreach(self, stmt: ast.Foreach) -> None:
        source = self._file_of(stmt.source)

        def map_fn(_key, records, ctx):
            exprs = ctx.config["exprs"]
            names = ctx.config["names"]
            for record in records:
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

        job = Job(
            input_file=source,
            map_fn=map_fn,
            config={"exprs": stmt.expressions, "names": stmt.names},
            name="pigeon-foreach",
        )
        result = self.sh.runner.run(job)
        self._record(OperationResult(answer=result.output, jobs=[result]))
        self._materialize(stmt.target, result.output)

    # -- Spatial operations ----------------------------------------------
    def _run_range(self, stmt: ast.RangeQuery) -> None:
        source = self._file_of(stmt.source)
        window = Rectangle(stmt.x1, stmt.y1, stmt.x2, stmt.y2)
        op = self._record(self.sh.range_query(source, window))
        self._materialize(stmt.target, list(op.answer))

    def _run_knn(self, stmt: ast.Knn) -> None:
        source = self._file_of(stmt.source)
        op = self._record(self.sh.knn(source, Point(stmt.x, stmt.y), stmt.k))
        self._materialize(stmt.target, [record for _d, record in op.answer])

    def _run_join(self, stmt: ast.SpatialJoin) -> None:
        left = self._file_of(stmt.left)
        right = self._file_of(stmt.right)
        op = self._record(self.sh.spatial_join(left, right))
        self._materialize(stmt.target, list(op.answer))

    def _run_unary(self, stmt: ast.UnaryOperation) -> None:
        source = self._file_of(stmt.source)
        if stmt.operation == "SKYLINE":
            op = self.sh.skyline(source)
            records = list(op.answer)
        elif stmt.operation == "CONVEXHULL":
            op = self.sh.convex_hull(source)
            records = list(op.answer)
        elif stmt.operation == "UNION":
            op = self.sh.union(source)
            records = list(op.answer)
        elif stmt.operation == "CLOSESTPAIR":
            op = self.sh.closest_pair(source)
            records = list(op.answer) if op.answer else []
        elif stmt.operation == "FARTHESTPAIR":
            op = self.sh.farthest_pair(source)
            records = list(op.answer) if op.answer else []
        elif stmt.operation == "VORONOI":
            op = self.sh.voronoi(source)
            records = list(op.answer.regions)
        else:  # pragma: no cover - the parser only emits the five above
            raise PigeonError(f"unknown operation {stmt.operation!r}")
        self._record(op)
        self._materialize(stmt.target, records)

    # -- Output -----------------------------------------------------------
    def _run_store(self, stmt: ast.Store) -> None:
        source = self._file_of(stmt.source)
        records = self.sh.fs.read_records(source)
        if self.sh.fs.exists(stmt.file_name):
            self.sh.fs.delete(stmt.file_name)
        self.sh.fs.create_file(stmt.file_name, records)

    def _run_dump(self, stmt: ast.Dump) -> None:
        source = self._file_of(stmt.source)
        self.result.dumped[stmt.source] = self.sh.fs.read_records(source)
