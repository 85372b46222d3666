"""Command-line interface, mirroring SpatialHadoop's shell operations.

The real system is driven from the Hadoop shell (``shadoop generate ...``,
``shadoop index ...``, ``shadoop rangequery ...``). This CLI reproduces
that workflow on the simulator: a *workspace* file persists the simulated
HDFS between invocations, so a session looks like::

    python -m repro -w ws.pkl generate pts --n 100000
    python -m repro -w ws.pkl index pts pts_idx --technique str
    python -m repro -w ws.pkl rangequery pts_idx --window 0,0,1e5,1e5
    python -m repro -w ws.pkl knn pts_idx --point 5e5,5e5 --k 10
    python -m repro -w ws.pkl plot pts_idx --ascii
    python -m repro -w ws.pkl info pts_idx
    python -m repro -w ws.pkl history
    python -m repro -w ws.pkl explain "range pts_idx 0,0,1e5,1e5"
    python -m repro -w ws.pkl explain --analyze "knn pts_idx 5e5,5e5 10"
    python -m repro -w ws.pkl doctor pts_idx --heatmap pts.svg
    python -m repro -w ws.pkl metrics --format prom
    python -m repro -w ws.pkl --profile rangequery pts_idx --window 0,0,1e5,1e5
    python -m repro -w ws.pkl profile --flamegraph phases.svg
    python -m repro sentinel --baseline before.json --current after.json

The query commands are generated from the operation table
(:mod:`repro.operations.table`), the same one the query language of
``explain``, ``query`` and ``serve`` reads: one command per operation
(``range`` and ``count`` keep the shell's names ``rangequery`` and
``rangecount``), its input files as positionals, ``--window`` /
``--point`` / ``--k`` for its arguments, and the same default ``k``.
Each prints the answer summary plus the cost line the benchmarks use
(blocks read, records shuffled, simulated makespan); ``-v`` adds the
full sorted counter table. Report commands take ``--format`` and share
one output path.

The global ``--trace FILE`` flag records a structured span trace of the
invocation (JSON-lines, plus a Chrome ``trace_event`` file for
chrome://tracing / Perfetto), and the ``history`` subcommand renders the
Hadoop-JobHistory-style report of the jobs the workspace has run.

The telemetry pipeline rides on three more pieces: ``--telemetry FILE``
appends wave-boundary metric scrapes (normalized JSONL, bit-identical
between serial and ``--workers N`` runs), ``metrics`` exports the
workspace metrics as Prometheus/OpenMetrics text, ``--profile`` +
``profile`` break job time into per-task phases (flamegraph-ready) and
``sentinel`` gates CI on perf drift between two benchmark snapshots
(nested JSON trees of numbers).

The flight recorder closes the loop: ``--log-level LEVEL`` arms a
structured event log that persists with the workspace (``repro logs``
queries it), ``bundle export/import/inspect`` freezes a whole run's
observability record into one checksummed file, ``diff A B`` attributes
the wall-time and counter deltas between two bundles down to the
culprit job/wave/phase, and ``report`` renders a bundle as a
self-contained HTML ops dashboard.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

from repro import SpatialHadoop
from repro.core.result import OperationResult
from repro.observe.bundle import BundleError
from repro.core.splitter import global_index_of
from repro.core.workspace import (
    WorkspaceError,
    load_workspace,
    save_workspace,
)
from repro.datagen import generate_points, generate_polygons, generate_rectangles
from repro.index.build import PARTITIONERS
from repro.mapreduce.checkpoint import (
    CancellationToken,
    CheckpointCorruptError,
    CheckpointNotFoundError,
    DeadlineExceeded,
    DriverCrashed,
    RunCancelled,
    default_checkpoint_dir,
)
from repro.observe.explain import (
    DEFAULT_K,
    USAGE,
    ExplainQueryError,
    Query,
    execute_query,
    explain_pigeon,
    parse_shape,
    rows_of,
)
from repro.operations.table import OPERATIONS
from repro.serve import Overloaded, ServiceConfig, parse_quota_spec

#: Exit codes for interrupted runs (sysexits / shell conventions):
#: an injected driver crash, a blown ``--deadline`` (mirrors
#: ``timeout(1)``), signal cancellation (``128 + signum``), a reader that
#: closed stdout (``128 + SIGPIPE``, as a tool the signal ends) and a
#: request shed by service admission control (EX_TEMPFAIL: retry later).
EXIT_DRIVER_CRASH = 70
EXIT_DEADLINE = 124
EXIT_SIGINT = 130
EXIT_SIGPIPE = 141
EXIT_OVERLOADED = 75


#: CLI verb of each query-language operation: its name, except where the
#: shadoop shell spells it differently.
_VERBS = {"range": "rangequery", "count": "rangecount"}
_OPERATION_OF = {_VERBS.get(name, name): op for name, op in OPERATIONS.items()}
#: Positional file arguments of a one- and a two-file operation.
_FILES = {1: ("file",), 2: ("left", "right")}
#: Boolean flags passed through to an operation's facade method.
_OPTIONS = {"union": ("enhanced",)}

#: ``generate --shape`` -> the generator of that shape.
_GENERATORS = {"point": generate_points, "rect": generate_rectangles,
               "polygon": generate_polygons}
#: Command verbs that change the workspace (it is saved after them).
_SAVES = frozenset({"generate", "index", "pigeon", "fsck", "rm"})


def _load_workspace(path: Path, num_nodes: int) -> SpatialHadoop:
    if path.exists():
        # Structured errors (corrupt / truncated / wrong type / newer
        # format) surface as a clean message, never a pickle traceback.
        return load_workspace(path, expected_type=SpatialHadoop)
    return SpatialHadoop(num_nodes=num_nodes, job_overhead_s=0.05)


def _shape_type(shape: str) -> Callable[[str], Any]:
    """``type=`` of ``--window`` / ``--point``: the query language's shape
    parser; a malformed value exits with the form the flag expects."""
    def parse(text: str) -> Any:
        try:
            return parse_shape(shape, text.split(","))
        except ExplainQueryError:
            expects = USAGE[shape][1:-1]
            raise SystemExit(f"--{shape} expects {expects}") from None
    return parse


def _pair(kind: str, answer: Any, digits: int) -> List[str]:
    a, b = answer
    return [f"{kind} pair: {a} — {b} (distance {a.distance(b):.{digits}f})"]


#: The answer lines of each operation, before its cost line.
_ANSWERS: Dict[str, Callable[[argparse.Namespace, Any], List[str]]] = {
    "range": lambda args, a: [f"{len(a)} records match"],
    "count": lambda args, a: [f"count: {a}"],
    "knn": lambda args, a: [f"{d:12.3f}  {record}" for d, record in a],
    "sjoin": lambda args, a: [f"{len(a)} overlapping pairs"],
    "knnjoin": lambda args, a: [f"{len(a)} rows, k={args.k}"],
    "skyline": lambda args, a: [
        f"skyline has {len(a)} points:", *(f"  {p}" for p in a)
    ],
    "hull": lambda args, a: [f"convex hull has {len(a)} vertices"],
    "closestpair": lambda args, a: _pair("closest", a, 6),
    "farthestpair": lambda args, a: _pair("farthest", a, 3),
    "union": lambda args, a: [
        f"union boundary: {len(a)} segments" if args.enhanced
        else f"union: {len(a)} rings"
    ],
    "voronoi": lambda args, a: [
        f"voronoi diagram: {len(a.regions)} regions, "
        f"{100 * a.pruned_fraction:.1f}% finalised before the merge"
    ],
}


def _given(**options: Any) -> Dict[str, Any]:
    """The keyword arguments whose flags the user set (not ``None``)."""
    return {key: value for key, value in options.items() if value is not None}


def _add_format(p: argparse.ArgumentParser, default: str,
                choices=("text", "json")) -> None:
    p.add_argument(
        "--format", choices=choices, default=choices[0],
        help=f"output format (default: {default})",
    )


def _emit(args: argparse.Namespace, doc: Callable[[], Any],
          text: Callable[[], str]) -> None:
    """Print a report verb's output in the ``--format`` asked for; ``doc``
    gives the JSON document, or its text when the report renders its own."""
    if args.format == "json":
        out = doc()
        if not isinstance(out, str):
            out = json.dumps(out, indent=2, default=str)
    else:
        out = text()
    print(out, end="" if out.endswith("\n") else "\n")


def _print_counter_table(counters, indent: str = "  ") -> None:
    items = list(counters.items())
    if not items:
        print(f"{indent}(no counters)")
        return
    width = max(len(name) for name, _ in items)
    for name, value in items:
        print(f"{indent}{name:<{width}} {value:>12d}")


def _print_cost(op: OperationResult, verbose: bool) -> None:
    print(
        f"[cost] blocks read: {op.blocks_read}, shuffled records: "
        f"{op.counters['SHUFFLE_RECORDS']}, rounds: {op.rounds}, "
        f"simulated: {op.makespan:.3f}s"
    )
    if verbose:
        print("[counters]")
        _print_counter_table(op.counters)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SpatialHadoop reproduction CLI (simulated cluster)",
    )
    parser.add_argument(
        "-w", "--workspace", default="repro_workspace.pkl",
        help="workspace file persisting the simulated HDFS",
    )
    parser.add_argument(
        "--nodes", type=int, default=25,
        help="cluster size when creating a new workspace",
    )
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="run map/reduce waves across N worker processes "
             "(default: $REPRO_WORKERS, else serial); results are "
             "identical to serial execution",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=None, metavar="N",
        help="retry each failed task up to N attempts before the job "
             "fails (default: 4)",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="fail a task attempt whose simulated CPU charge exceeds "
             "this many seconds (default: no timeout)",
    )
    parser.add_argument(
        "--speculative", action="store_true",
        help="launch backup attempts for straggler tasks "
             "(Hadoop speculative execution)",
    )
    parser.add_argument(
        "--faults", default=None, metavar="SPEC",
        help="inject deterministic faults, e.g. "
             "'crash:map:1,kill:map:2' or 'random:crash:0.1:seed'; "
             "overrides $REPRO_FAULTS for this invocation",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="journal every map/reduce wave to DIR so a crashed or "
             "cancelled invocation can be continued with 'repro resume "
             "DIR' — results bit-identical to an uninterrupted run",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="SECONDS",
        help="stop cooperatively at the next task boundary once this "
             "much time has elapsed (exit 124); with --checkpoint the "
             "partial run is resumable",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="record a structured trace of this invocation: JSON-lines "
             "spans to FILE plus a Chrome trace_event file next to it "
             "(open in chrome://tracing or Perfetto)",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="stream live wave/task progress of every job to stderr",
    )
    parser.add_argument(
        "--telemetry", default=None, metavar="FILE",
        help="export the workspace's wave-boundary metric scrapes as "
             "normalized JSONL to FILE at the end of this invocation "
             "(bit-identical between serial and --workers N runs)",
    )
    parser.add_argument(
        "--log-level", default=None, metavar="LEVEL",
        choices=("debug", "info", "warn", "error"),
        help="arm the structured event log at LEVEL for this invocation; "
             "the log persists with the workspace (query it with the "
             "'logs' subcommand)",
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="profile per-task phases (split fetch, columnar decode, "
             "kernels, R-tree probes ...) for this invocation's jobs; "
             "see the 'profile' subcommand",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true",
        help="print the full sorted counter table after query commands",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a synthetic dataset")
    p.add_argument("file")
    p.add_argument("--n", type=int, default=10_000)
    p.add_argument("--distribution", default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--shape", choices=tuple(_GENERATORS), default="point")

    p = sub.add_parser("index", help="build a spatial index")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--technique", default="str", choices=sorted(PARTITIONERS))
    p.add_argument("--block-capacity", type=int, default=None)

    for verb, op in _OPERATION_OF.items():
        p = sub.add_parser(verb, help=op.method.replace("_", " "))
        for name in _FILES[op.files]:
            p.add_argument(name)
        for field in op.args:
            if field == "k":
                p.add_argument("--k", type=int, default=DEFAULT_K)
            else:
                p.add_argument(f"--{field}", required=True,
                               type=_shape_type(field))
        for flag in _OPTIONS.get(op.name, ()):
            p.add_argument(f"--{flag}", action="store_true")

    p = sub.add_parser("plot", help="rasterise a file")
    p.add_argument("file")
    p.add_argument("--width", type=int, default=70)
    p.add_argument("--height", type=int, default=30)
    p.add_argument("--out", default=None, help="write a PGM image here")
    p.add_argument("--ascii", action="store_true", help="print ASCII art")

    p = sub.add_parser("pigeon", help="run a Pigeon script")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--script", help="path to a script file")
    group.add_argument("-e", "--execute", help="inline script text")

    sub.add_parser("ls", help="list files in the workspace")

    p = sub.add_parser("info", help="describe one file")
    p.add_argument("file")

    p = sub.add_parser(
        "explain",
        help="EXPLAIN a query: print its plan tree without executing it",
    )
    p.add_argument(
        "query", nargs="+",
        help="query text, e.g.: range pts_idx 0,0,100,100 | "
             "knn pts_idx 50,50 10 | sjoin a b | skyline pts_idx",
    )
    p.add_argument(
        "--analyze", action="store_true",
        help="execute the query and annotate the plan with actuals",
    )
    p.add_argument(
        "--pigeon", action="store_true",
        help="the query is a Pigeon script (a file path, or inline text)",
    )
    _add_format(p, "text tree")

    p = sub.add_parser(
        "doctor",
        help="diagnose an indexed file: skew, overlap hot-spots, fill",
    )
    p.add_argument("file")
    _add_format(p, "text report")
    p.add_argument(
        "--heatmap", default=None, metavar="PATH",
        help="write a per-partition record-density heatmap "
             "(.svg for SVG, anything else for PGM)",
    )
    p.add_argument("--block-capacity", type=int, default=None)

    p = sub.add_parser(
        "fsck",
        help="verify block checksums, replica health and index integrity",
    )
    p.add_argument(
        "--repair", action="store_true",
        help="re-replicate corrupt/under-replicated blocks and re-stamp "
             "a block whose body no longer matches its checksum",
    )
    p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="also audit this crash-recovery checkpoint journal "
             "(default: the workspace's <workspace>.ckpt, if present)",
    )
    _add_format(p, "text report")

    p = sub.add_parser(
        "resume",
        help="continue an interrupted checkpointed run (crash, deadline "
             "or signal) and verify it completes bit-identically",
    )
    p.add_argument(
        "directory", nargs="?", default=None,
        help="checkpoint journal to resume (default: the workspace's "
             "<workspace>.ckpt)",
    )
    p.add_argument(
        "--list", action="store_true", dest="list_runs",
        help="list resumable (and corrupt) checkpoint journals instead "
             "of resuming",
    )
    p.add_argument(
        "--dir", default=None, metavar="ROOT",
        help="root directory scanned by --list (default: the "
             "workspace file's directory)",
    )

    p = sub.add_parser(
        "history", help="render the job-history report for this workspace"
    )
    p.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the N most recent jobs (default: all retained)",
    )
    _add_format(p, "text report")

    p = sub.add_parser(
        "metrics",
        help="export the workspace metrics registry",
    )
    _add_format(p, "Prometheus/OpenMetrics text exposition",
                choices=("prom", "json"))

    p = sub.add_parser(
        "profile",
        help="aggregate phase profiles of profiled jobs in the history",
    )
    p.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the N most recent jobs (default: all retained)",
    )
    p.add_argument(
        "--flamegraph", default=None, metavar="FILE",
        help="also write a flamegraph (.svg, or .txt for raw "
             "collapsed stacks)",
    )

    p = sub.add_parser(
        "sentinel",
        help="compare a benchmark snapshot against a baseline; exits "
             "non-zero on perf regressions (the CI gate)",
    )
    p.add_argument(
        "--baseline", required=True, metavar="FILE",
        help="baseline BENCH_*.json file",
    )
    p.add_argument(
        "--current", default=None, metavar="FILE",
        help="snapshot to check (default: the baseline itself, a "
             "trivially clean wiring check)",
    )
    p.add_argument(
        "--tolerance", type=float, default=None, metavar="PCT",
        help="symmetric drift tolerance in percent (default: 20)",
    )
    _add_format(p, "text report")

    p = sub.add_parser(
        "logs",
        help="query the workspace's structured event log "
             "(arm it with --log-level)",
    )
    p.add_argument(
        "--grep", default=None, metavar="TEXT",
        help="case-insensitive substring match over the rendered line",
    )
    p.add_argument(
        "--level", default=None, choices=("debug", "info", "warn", "error"),
        help="minimum severity to show",
    )
    p.add_argument("--component", default=None, help="exact component match")
    p.add_argument("--task", default=None, help="exact task-id match")
    p.add_argument("--job", default=None, help="exact job-name match")
    p.add_argument(
        "--last", type=int, default=None, metavar="N",
        help="only the N most recent matching events",
    )
    p.add_argument(
        "--normalize", action="store_true",
        help="print the backend-independent view (volatile events "
             "dropped, timestamps replaced by ordinals); ignores the "
             "filter flags",
    )
    _add_format(p, "text lines")

    p = sub.add_parser(
        "bundle",
        help="export/import/inspect a single-file run bundle capturing "
             "this workspace's whole observability record",
    )
    p.add_argument("action", choices=("export", "import", "inspect"))
    p.add_argument("file", help="bundle file path")
    p.add_argument(
        "--name", default=None, metavar="NAME",
        help="run name stamped into an exported bundle "
             "(default: the workspace file's stem)",
    )

    p = sub.add_parser(
        "diff",
        help="compare two run bundles and attribute the deltas to the "
             "culprit job/wave/task/phase; exits non-zero on any "
             "out-of-tolerance delta",
    )
    p.add_argument("a", help="baseline bundle")
    p.add_argument("b", help="candidate bundle")
    p.add_argument(
        "--tolerance", type=float, default=None, metavar="PCT",
        help="relative tolerance for timing deltas in percent "
             "(default: 1)",
    )
    p.add_argument(
        "--abs-floor", type=float, default=None, metavar="SECONDS",
        help="timing deltas below this many seconds are never culprits "
             "(default: 0.001)",
    )
    _add_format(p, "text culprit table")

    p = sub.add_parser(
        "report",
        help="render the workspace (or a bundle) as a self-contained "
             "HTML ops dashboard",
    )
    p.add_argument(
        "--out", default="repro_report.html", metavar="FILE",
        help="output HTML file (default: repro_report.html)",
    )
    p.add_argument(
        "--bundle", default=None, metavar="FILE",
        help="render this bundle instead of the live workspace",
    )
    p.add_argument(
        "--vs", default=None, metavar="FILE",
        help="also include a run-diff section against this baseline "
             "bundle",
    )

    p = sub.add_parser(
        "serve",
        help="run the multi-tenant query service over this workspace: "
             "line-oriented request/response (one JSON object per line) "
             "with admission control, fair scheduling, circuit breakers "
             "and a result cache",
    )
    p.add_argument(
        "--script", default=None, metavar="FILE",
        help="replay a recorded request script instead of reading stdin",
    )
    p.add_argument(
        "--quota", action="append", default=[], metavar="SPEC",
        help="per-tenant quota, repeatable: tenant=key=value[,...] with "
             "keys weight, inflight, queue, budget, window — e.g. "
             "'alice=weight=2,inflight=1,queue=4'",
    )
    p.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="bound globally concurrent requests (default: derived "
             "from the cluster model's serving slots)",
    )
    p.add_argument(
        "--breaker-threshold", type=int, default=None, metavar="N",
        help="consecutive failures that trip a dataset's circuit "
             f"breaker open (default: {ServiceConfig.breaker_threshold})",
    )
    p.add_argument(
        "--breaker-cooldown", type=float, default=None, metavar="SECONDS",
        help="simulated seconds an open breaker waits before letting a "
             "half-open probe through "
             f"(default: {ServiceConfig.breaker_cooldown_s:g})",
    )
    p.add_argument(
        "--cache-capacity", type=int, default=None, metavar="N",
        help="LRU result-cache entries "
             f"(default: {ServiceConfig.cache_capacity})",
    )
    p.add_argument(
        "--summary", default=None, metavar="FILE",
        help="write the terminal-outcome summary (served/degraded/"
             "overloaded/... counts) as JSON to FILE",
    )

    p = sub.add_parser(
        "query",
        help="one-shot tenant query through the service layer (admission "
             "control, breakers and degraded fallbacks apply; the global "
             "--deadline becomes the request deadline)",
    )
    p.add_argument(
        "--tenant", default="default", metavar="NAME",
        help="tenant to submit as (default: 'default')",
    )
    p.add_argument(
        "query", nargs="+",
        help="query text, e.g.: range pts_idx 0,0,100,100",
    )

    p = sub.add_parser("rm", help="delete a file")
    p.add_argument("file")

    return parser


def _fail(error: Any, code: int = 1) -> int:
    """Report ``error`` on stderr; returns the exit code ``code``."""
    print(f"error: {error}", file=sys.stderr)
    return code


def _stopped(manager, error: Any, code: int,
             reason: Optional[str] = None) -> int:
    """Report a run stopped before it finished: mark the journal (when
    ``reason`` is given) and say how to resume it."""
    _fail(error)
    if manager is not None:
        if reason is not None:
            manager.interrupt(reason)
        print(
            f"[checkpoint] partial run journaled — continue with: "
            f"repro resume {manager.directory}",
            file=sys.stderr,
        )
    return code


def _cmd_resume(args: argparse.Namespace) -> int:
    """The ``resume`` subcommand: list journals, or continue one."""
    from repro.mapreduce.checkpoint import CheckpointManager, list_runs

    workspace = Path(args.workspace)
    if args.list_runs:
        root = Path(args.dir) if args.dir else (workspace.parent or Path("."))
        runs = list_runs(root)
        if not runs:
            print(f"no checkpointed runs under {root}")
            return 0
        for run in runs:
            line = f"{run['directory']}: {run['status']}"
            if run.get("command"):
                line += f" — repro {run['command']}"
            if run.get("waves"):
                line += f" ({run['waves']} wave(s) journaled)"
            if run["status"] == "corrupt" and run.get("reason"):
                line += f" — {run['reason']}"
            print(line)
        return 0
    directory = (
        Path(args.directory) if args.directory
        else default_checkpoint_dir(workspace)
    )
    try:
        manager = CheckpointManager.load(directory)
    except CheckpointNotFoundError as exc:
        return _fail(exc)
    except CheckpointCorruptError as exc:
        _fail(exc)
        print(
            "hint: audit the journal with 'repro fsck --checkpoint-dir "
            f"{directory}' (--repair discards corrupt wave files)",
            file=sys.stderr,
        )
        return 1
    if not manager.argv:
        return _fail(f"manifest at {directory} records no command to re-run")
    print(
        f"[resume] re-running: repro {' '.join(manager.argv)}",
        file=sys.stderr,
    )
    # Replay the recorded invocation verbatim. The journal makes the
    # re-run bit-identical: committed waves replay from the checkpoint,
    # only the missing ones execute, and already-fired driver faults
    # stay fired.
    return _main(manager.argv, _resume=str(directory))


def main(argv: Optional[List[str]] = None) -> int:
    """Run one CLI invocation; returns its exit code."""
    try:
        code = _main(argv)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (``repro ... | head``): stop as a tool
        # that SIGPIPE ends would, without a traceback and without saving
        # the workspace. Point stdout at /dev/null so the interpreter's
        # last flush of what is still buffered cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_SIGPIPE
    return code


def _main(
    argv: Optional[List[str]] = None, _resume: Optional[str] = None
) -> int:
    original_argv = list(argv) if argv is not None else list(sys.argv[1:])
    args = _build_parser().parse_args(original_argv)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.nodes <= 0:
        return _fail("--nodes must be a positive integer")
    if args.workers is not None and args.workers < 1:
        return _fail("--workers must be >= 1")
    if args.deadline is not None and args.deadline < 0:
        return _fail("--deadline must be >= 0")
    path = Path(args.workspace)
    try:
        sh = _load_workspace(path, args.nodes)
    except KeyboardInterrupt:
        # Ctrl-C during workspace load, before the cooperative signal
        # handlers are installed. Nothing has run and nothing is dirty,
        # so honour the same exit contract the handlers do.
        return _fail("interrupted while loading the workspace", EXIT_SIGINT)
    # ValueError: e.g. a malformed REPRO_WORKERS value.
    except (WorkspaceError, ValueError) as exc:
        return _fail(exc)
    if args.workers is not None:
        # A per-invocation execution choice, not a workspace property:
        # workspaces saved under --workers replay fine without it.
        sh.runner.set_workers(args.workers)
    if args.max_attempts is not None:
        if args.max_attempts < 1:
            return _fail("--max-attempts must be >= 1")
        sh.runner.max_attempts = args.max_attempts
    if args.task_timeout is not None:
        sh.runner.task_timeout = args.task_timeout
    if args.speculative:
        sh.runner.speculative = True
    # Chaos tooling is per-invocation by construction: the runner drops
    # its fault plan when the workspace is pickled, so the --faults flag
    # (or, failing that, $REPRO_FAULTS) is re-resolved on every command.
    try:
        sh.runner.set_faults(args.faults)
    except ValueError as exc:
        return _fail(f"bad --faults spec: {exc}")
    # Crash recovery. Arm AFTER set_faults (which resets the runner's
    # fired-fault memory): resume merges the journal's already-fired
    # driver faults back in so the crash that killed the original
    # invocation is not re-injected.
    manager = None
    if _resume is not None:
        try:
            manager = sh.resume(_resume)
        except (CheckpointCorruptError, CheckpointNotFoundError) as exc:
            return _fail(exc)
    elif args.checkpoint is not None:
        manager = sh.enable_checkpoints(
            args.checkpoint,
            argv=original_argv,
            workspace=str(path),
            deadline=args.deadline,
        )
    # Cooperative cancellation: the token carries the --deadline budget
    # and is the channel signal handlers cancel through. The runner
    # polls it between tasks and at wave/round boundaries.
    token = CancellationToken(deadline_s=args.deadline)
    sh.runner.set_cancellation(token)
    tracer = sh.enable_tracing() if args.trace else None
    if args.log_level:
        # Arming (or re-levelling) the flight recorder is a workspace
        # change: the event log pickles with the workspace so later
        # invocations keep recording without the flag.
        sh.eventlog(level=args.log_level)
    if args.progress:
        sh.enable_progress()
    if args.profile:
        sh.enable_profiling()
    telemetry = sh.telemetry() if args.telemetry else None
    history = sh.history
    jobs_before = history.total_recorded
    scrapes_before = len(telemetry) if telemetry is not None else 0

    # Graceful shutdown: the first SIGINT/SIGTERM requests a cooperative
    # stop at the next task boundary (pools drained, a resumable
    # checkpoint persisted when armed); a second one aborts immediately
    # via KeyboardInterrupt. Pool workers ignore SIGINT and take SIGTERM
    # at its default, so cancellation stays the driver's.
    def _on_signal(signum: int, _frame) -> None:
        if token.cancelled:
            raise KeyboardInterrupt
        token.cancel(f"signal {signum}", signum=signum)
        print(
            f"[cancel] caught signal {signum}; stopping at the next task "
            "boundary (send again to stop immediately)",
            file=sys.stderr,
        )

    previous_handlers = {}
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[sig] = signal.signal(sig, _on_signal)
        except (ValueError, OSError):  # not the main thread
            pass

    # Interrupted runs return from their except block on purpose: the
    # code after this try/finally saves the workspace, and an
    # interrupted invocation must NOT save — resume re-runs the
    # recorded command against the original on-disk state, which is
    # what makes the continuation bit-identical.
    try:
        code = _dispatch(sh, args)
    except DriverCrashed as exc:
        # Injected driver crash: the journal was already marked
        # interrupted (the fault fires only after its wave committed).
        return _stopped(manager, exc, EXIT_DRIVER_CRASH)
    except DeadlineExceeded as exc:
        return _stopped(manager, exc, EXIT_DEADLINE, reason=str(exc))
    except RunCancelled as exc:
        return _stopped(manager, exc, 128 + (token.signum or signal.SIGINT),
                        reason=str(exc))
    except KeyboardInterrupt:
        return _stopped(manager, "interrupted", EXIT_SIGINT,
                        reason="keyboard interrupt")
    except (FileNotFoundError, FileExistsError, ValueError, BundleError) as exc:
        return _fail(exc)
    except RuntimeError as exc:
        # A job failed outright — e.g. a task exhausted its attempts
        # under an injected fault plan. Report, don't traceback.
        return _fail(f"job failed: {exc}")
    finally:
        for sig, handler in previous_handlers.items():
            try:
                signal.signal(sig, handler)
            except (ValueError, OSError):
                pass
        sh.runner.set_cancellation(None)
        sh.runner.close()
        if manager is not None:
            manager.close()  # the wave log's descriptor, on every exit
        # The reporter holds an open stderr handle; like a live tracer it
        # is per-invocation only and must never reach the pickle below.
        sh.disable_progress()
        if args.profile:
            # Like --workers, a per-invocation choice: the saved
            # workspace replays unprofiled (env/explicit API re-enable).
            sh.runner.recorder.profile = None
        if telemetry is not None:
            written = telemetry.export_jsonl(args.telemetry)
            new = len(telemetry) - scrapes_before
            print(
                f"[telemetry] {written} scrape(s) ({new} new) -> "
                f"{args.telemetry}",
                file=sys.stderr,
            )
        if tracer is not None:
            trace_path = Path(args.trace)
            tracer.export_jsonl(trace_path)
            chrome_path = trace_path.with_suffix(".chrome.json")
            tracer.export_chrome(chrome_path)
            print(
                f"[trace] {len(tracer.records())} records -> {trace_path} "
                f"(Chrome: {chrome_path})",
                file=sys.stderr,
            )
            # Live tracers are per-invocation diagnostics; never pickle
            # one into the workspace.
            sh.disable_tracing()

    # The command completed: checkpoints served their purpose. Record
    # what a resume recovered, then garbage-collect the journal —
    # completed jobs must not leave stale state for a later resume to
    # trip over.
    if manager is not None:
        if _resume is not None:
            sh.history.record_recovery(manager.recovery_summary())
        manager.finish()
        sh.runner.set_checkpoint(None)

    # Query commands don't mutate the file system, but they do append to
    # the job history (bundle import replaces it) — persist that too so
    # `repro history` accumulates. Arming the event log also persists
    # (the log rides the workspace), and so does a resume's record.
    if (args.command in _SAVES or sh.history is not history
            or sh.history.total_recorded > jobs_before
            or args.log_level or _resume is not None):
        save_workspace(sh, path)
    return code


def _dispatch(sh: SpatialHadoop, args: argparse.Namespace) -> int:
    """Run one subcommand; returns its exit code."""
    cmd = args.command
    operation = _OPERATION_OF.get(cmd)
    if operation is not None:
        name = operation.name
        files = [getattr(args, f) for f in _FILES[operation.files]]
        arguments = {f: getattr(args, f) for f in operation.args}
        query = Query(name, files, **arguments)
        options = {f: getattr(args, f) for f in _OPTIONS.get(name, ())}
        op = execute_query(sh, query, **options)
        render = _ANSWERS.get(name, lambda args, a: [f"{rows_of(a)} rows"])
        for line in render(args, op.answer):
            print(line)
        _print_cost(op, args.verbose)
        return 0

    if cmd == "generate":
        generate = _GENERATORS[args.shape]
        sh.load(args.file, generate(args.n, args.distribution, seed=args.seed))
        print(
            f"generated {args.n} {args.distribution} {args.shape}s "
            f"into '{args.file}' ({sh.fs.num_blocks(args.file)} blocks)"
        )
        return 0

    if cmd == "index":
        result = sh.index(
            args.input, args.output,
            technique=args.technique,
            block_capacity=args.block_capacity,
        )
        print(
            f"indexed '{args.input}' -> '{args.output}' with {args.technique}: "
            f"{len(result.global_index)} partitions, "
            f"replication {result.replication:.3f}, "
            f"simulated {result.makespan:.3f}s"
        )
        return 0

    if cmd == "plot":
        from repro.viz import plot as viz_plot

        op = viz_plot(sh.runner, args.file, width=args.width, height=args.height)
        if args.out:
            Path(args.out).write_text(op.answer.to_pgm())
            print(f"wrote {args.out}")
        if args.ascii or not args.out:
            print(op.answer.to_ascii())
        _print_cost(op, args.verbose)
        return 0

    if cmd == "pigeon":
        from repro.pigeon import run_script

        text = args.execute if args.execute else Path(args.script).read_text()
        result = run_script(sh, text)
        for name, records in result.dumped.items():
            print(f"-- DUMP {name} ({len(records)} records)")
            for record in records[:20]:
                print(f"  {record}")
            if len(records) > 20:
                print(f"  ... {len(records) - 20} more")
        print(
            f"[cost] {result.total_rounds} MapReduce rounds, "
            f"simulated {result.total_makespan:.3f}s"
        )
        return 0

    if cmd == "ls":
        for name in sh.fs.list_files():
            entry = sh.fs.get(name)
            indexed = "indexed" if "global_index" in entry.metadata else "heap"
            print(
                f"{name:30s} {entry.num_records:>10d} records "
                f"{entry.num_blocks:>5d} blocks  {indexed}"
            )
        return 0

    if cmd == "info":
        entry = sh.fs.get(args.file)
        print(f"file      : {args.file}")
        print(f"records   : {entry.num_records}")
        print(f"blocks    : {entry.num_blocks}")
        gindex = global_index_of(sh.fs, args.file)
        if gindex is None:
            print("index     : none (heap file)")
        else:
            print(f"index     : {gindex.technique} "
                  f"({'disjoint' if gindex.disjoint else 'overlapping'})")
            print(f"file MBR  : {gindex.mbr}")
            for cell in gindex:
                print(f"  {cell}")
        if args.verbose:
            snapshot = sh.metrics.snapshot()
            print("workspace metrics:")
            _print_counter_table(snapshot["counters"])
        return 0

    if cmd == "explain":
        text = " ".join(args.query)
        if args.pigeon:
            script_path = Path(text)
            script = script_path.read_text() if script_path.exists() else text
            explanation = explain_pigeon(sh, script, analyze=args.analyze)
        elif args.analyze:
            explanation = sh.analyze(text)
        else:
            explanation = sh.explain(text)
        _emit(args, explanation.to_json, explanation.render)
        return 0

    if cmd == "doctor":
        diagnosis = sh.doctor(args.file, block_capacity=args.block_capacity)
        _emit(args, diagnosis.to_dict, diagnosis.render)
        if args.heatmap:
            from repro.viz import write_heatmap

            fmt = write_heatmap(
                global_index_of(sh.fs, args.file), args.heatmap
            )
            print(f"wrote {fmt} heatmap to {args.heatmap}", file=sys.stderr)
        return 0

    if cmd == "fsck":
        ckpt_dir = args.checkpoint_dir
        if ckpt_dir is None:
            candidate = default_checkpoint_dir(Path(args.workspace))
            if candidate.is_dir():
                ckpt_dir = str(candidate)
        report = sh.fsck(repair=args.repair, checkpoint_dir=ckpt_dir)
        # fsck always mutates history; --repair also heals the fs.
        _emit(args, report.to_dict, report.render)
        return 0

    if cmd == "history":
        _emit(args, lambda: sh.history.to_dict(last=args.last),
              lambda: sh.history.report(last=args.last))
        return 0

    if cmd == "metrics":
        _emit(args, sh.metrics.snapshot, sh.openmetrics)
        return 0

    if cmd == "profile":
        from repro.observe import profile as profile_mod

        merged: dict = {}
        profiled = 0
        for rec in sh.history.last(args.last):
            phases = getattr(rec, "phase_profile", None)
            if phases:
                profile_mod.merge_profiles(merged, phases)
                profiled += 1
        print(
            f"phase profile over {profiled} profiled job(s) "
            f"(of {len(sh.history.last(args.last))} in range):"
        )
        print(profile_mod.render_report(merged).rstrip())
        if args.flamegraph:
            from repro.viz import write_flamegraph

            if not merged:
                raise ValueError(
                    "no profiled jobs in range — run queries with "
                    "--profile (or REPRO_PROFILE=1) first"
                )
            write_flamegraph(profile_mod.collapse(merged), args.flamegraph)
            print(f"wrote flamegraph to {args.flamegraph}", file=sys.stderr)
        return 0

    if cmd == "sentinel":
        from repro.observe import sentinel as sentinel_mod

        report = sentinel_mod.compare_files(
            args.baseline, args.current, **_given(tolerance_pct=args.tolerance)
        )
        _emit(args, report.to_dict, report.render)
        return report.exit_code

    if cmd == "logs":
        from repro.observe.log import render_report

        log = sh.runner.recorder.eventlog
        if log is None:
            print(
                "event log is not armed for this workspace — run any "
                "command with --log-level first (e.g. --log-level info)"
            )
            return 0
        if args.normalize:
            records = log.normalized_records()
            if args.last is not None:
                records = records[-args.last:]
        else:
            records = log.query(
                level=args.level,
                component=args.component,
                task=args.task,
                job=args.job,
                grep=args.grep,
                last=args.last,
            )
        _emit(args, lambda: records,
              lambda: render_report(records, dropped=log.dropped))
        return 0

    if cmd == "bundle":
        from repro.observe import bundle as bundle_mod

        if args.action == "export":
            name = args.name or Path(args.workspace).stem
            doc = bundle_mod.collect_bundle(sh, name=name)
            size = bundle_mod.write_bundle(doc, args.file)
            print(
                f"exported run bundle '{name}' -> {args.file} "
                f"({size} bytes)"
            )
            return 0
        if args.action == "inspect":
            doc = bundle_mod.read_bundle(args.file)
            print(bundle_mod.inspect_bundle(doc, args.file))
            return 0
        # import: replace this workspace's history/telemetry/event log.
        doc = bundle_mod.read_bundle(args.file)
        restored = bundle_mod.import_bundle(sh, doc)
        print(
            f"imported {args.file}: {restored['jobs']} job(s), "
            f"{restored['fsck_runs']} fsck run(s), "
            f"{restored['scrapes']} scrape(s), "
            f"{restored['events']} event(s)"
        )
        return 0

    if cmd == "diff":
        from repro.observe import diff as diff_mod

        report = diff_mod.diff_bundles(args.a, args.b, **_given(
            tolerance_pct=args.tolerance, abs_floor_s=args.abs_floor
        ))
        _emit(args, report.to_json, report.render)
        return report.exit_code

    if cmd == "report":
        from repro.observe import bundle as bundle_mod
        from repro.observe import diff as diff_mod
        from repro.viz import write_dashboard

        if args.bundle:
            doc = bundle_mod.read_bundle(args.bundle)
            label = str(args.bundle)
        else:
            doc = bundle_mod.collect_bundle(sh, name=Path(args.workspace).stem)
            label = "current workspace"
        diff_doc = None
        if args.vs:
            baseline = bundle_mod.read_bundle(args.vs)
            diff_doc = diff_mod.diff_docs(
                baseline, doc, label_a=str(args.vs), label_b=label
            ).to_dict()
        write_dashboard(doc, args.out, diff=diff_doc)
        print(f"wrote ops dashboard for {label} -> {args.out}")
        return 0

    if cmd == "serve":
        return _cmd_serve(sh, args)

    if cmd == "query":
        service = sh.serve()
        try:
            response = service.query(
                args.tenant, " ".join(args.query), deadline_s=args.deadline
            )
        except Overloaded as exc:
            return _fail(exc, EXIT_OVERLOADED)
        finally:
            service.shutdown()
        print(response.to_json())
        if response.outcome == "error":
            return _fail(response.error)
        return EXIT_DEADLINE if response.outcome == "deadline" else 0

    if cmd == "rm":
        if not sh.fs.delete(args.file):
            raise FileNotFoundError(f"no such file: {args.file!r}")
        print(f"deleted '{args.file}'")
        return 0

    raise SystemExit(f"unknown command {cmd!r}")  # pragma: no cover


class _GracefulShutdown(Exception):
    """Raised by the serve loop's SIGTERM handler to trigger a drain."""


def _cmd_serve(sh: SpatialHadoop, args: argparse.Namespace) -> int:
    """The ``serve`` subcommand: a line-oriented service session.

    Requests come from ``--script`` or stdin; each terminal response is
    printed as one JSON line. SIGTERM (and end-of-input) shuts down
    gracefully: queues drain, pools close, the workspace persists (job
    history accumulated by served queries triggers the save in
    :func:`main`), and the exit code is 0.
    """
    quotas = {}
    for spec in args.quota:
        quotas.update(parse_quota_spec(spec))
    config = ServiceConfig(**_given(
        max_inflight=args.max_inflight,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
        cache_capacity=args.cache_capacity,
    ))
    service = sh.serve(config=config, quotas=quotas)

    def _on_term(signum: int, _frame) -> None:
        service.request_shutdown()
        raise _GracefulShutdown()

    previous_term = None
    try:
        previous_term = signal.signal(signal.SIGTERM, _on_term)
    except (ValueError, OSError):  # not the main thread
        pass
    try:
        if args.script:
            lines = Path(args.script).read_text().splitlines()
            for response in service.process_script(lines):
                print(response.to_json())
        else:
            print(
                "[serve] reading requests from stdin, one JSON object "
                "per line ({\"tenant\": ..., \"query\": ..., "
                "\"deadline_s\": ...}); EOF or SIGTERM stops the service",
                file=sys.stderr,
            )
            for line in sys.stdin:
                for response in service.process_script([line]):
                    print(response.to_json(), flush=True)
                if service.shutdown_requested:
                    break
    except _GracefulShutdown:
        print(
            "[serve] SIGTERM received; draining queues and shutting down",
            file=sys.stderr,
        )
    finally:
        if previous_term is not None:
            try:
                signal.signal(signal.SIGTERM, previous_term)
            except (ValueError, OSError):
                pass
    summary = service.shutdown()
    if args.summary:
        Path(args.summary).write_text(
            json.dumps(summary, indent=2, sort_keys=True) + "\n"
        )
        print(f"[serve] wrote summary to {args.summary}", file=sys.stderr)
    print(
        "[serve] {requests} request(s): {served} served, {degraded} "
        "degraded, {overloaded} overloaded, {deadline} deadline, "
        "{error} error; cache hit ratio {ratio:.2f}".format(
            ratio=summary["cache"]["hit_ratio"], **summary
        ),
        file=sys.stderr,
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
