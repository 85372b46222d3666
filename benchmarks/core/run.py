"""The core benchmark's one command.

    python3 benchmarks/core/run.py                      # all six workloads
    python3 benchmarks/core/run.py --workload query_mix # one, in-process
    python3 benchmarks/core/run.py --trace              # per-layer run

With ``--workload`` the run happens in this process and the last line of
standard output is one JSON object (``correct``, ``attempted``, ``failed``,
``metrics``): the end-to-end metrics, or with ``--trace 1`` the per-layer
metrics. Without it every workload runs in its own fresh subprocess and
the results are gathered into one table (and ``--out FILE``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"

sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import spec  # noqa: E402


def parse_args(argv: Optional[List[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS))
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS,
                        help="seconds of timed passes per workload")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: the traced run that yields per-layer metrics")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies every record count (self-tests)")
    parser.add_argument("--out", type=Path,
                        help="write the full result (quartiles, raw times, "
                        "environment) to this JSON file")
    parser.add_argument("--plant", choices=("wrong", "raise"),
                        help="self-test: append an op that must fail")
    parser.add_argument("--write-spec", action="store_true",
                        help="regenerate BENCHMARK.json from spec.py")
    return parser.parse_args(argv)


def environment(args: argparse.Namespace) -> Dict[str, Any]:
    """What two result files must share to be comparable."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "common_factor": spec.COMMON_FACTOR,
        "spin_ref_s": harness.SPIN_REF_S,
    }


def plant(workload: harness.Workload, kind: str) -> None:
    """Append an op that is wrong or raises (harness self-test)."""
    def boom() -> Any:
        raise RuntimeError("planted failure")

    workload.ops.append(harness.Op(
        cls="planted",
        call=boom if kind == "raise" else (lambda: "answer"),
        canon=lambda result: result,
        expect=lambda: "another answer",
    ))


def measure(args: argparse.Namespace, tmp: Path) -> Dict[str, Any]:
    """Set-up, warm-up and timed passes of one workload, untraced."""
    import workloads

    build = lambda: workloads.BUILDERS[args.workload](  # noqa: E731
        args.seed, args.scale, tmp)
    clock = time.perf_counter
    started = clock()
    setups_raw: List[float] = []
    setups: List[float] = []
    workload = None
    spent = 0.0
    # Cheap set-ups repeat until they add up to something measurable.
    while len(setups) < spec.MIN_SETUPS or (spent < 1.0 and len(setups) < 12):
        if workload is not None:
            workload.close()
        workload = None  # drop the previous system before timing the next
        gc.collect()
        workload, raw, factor = harness.timed(build)
        setups_raw.append(raw)
        setups.append(raw / factor)
        spent += raw
    if args.plant:
        plant(workload, args.plant)

    setup_done = clock()
    digests: List[Optional[str]] = [None] * len(workload.ops)
    warm = harness.run_pass(workload, digests, verify=True)
    warm_done = clock()
    failures = list(warm.failures)
    passes: List[harness.PassResult] = []
    elapsed = 0.0
    while len(passes) < spec.MIN_PASSES or elapsed < args.seconds:
        result = harness.run_pass(workload, digests)
        passes.append(result)
        failures.extend(result.failures)
        elapsed += result.wall_raw_s
    workload.close()

    per_pass = [sorted(1000 * latency / p.host_factor
                       for latency in p.latencies_raw_s) for p in passes]
    pooled = sorted(latency for one in per_pass for latency in one)

    def latency_metric(share: float) -> Dict[str, float]:
        # Quartiles over the passes' own percentiles; the value is pooled.
        spread = harness.summary(
            [harness.percentile(one, share) for one in per_pass])
        return {**spread, "value": harness.percentile(pooled, share),
                "n": len(pooled)}
    return {
        "workload": args.workload,
        "sizes": workload.sizes,
        "ops_per_pass": len(workload.ops),
        "ops_attempted": len(workload.ops) * (len(passes) + 1),
        "ops_failed": len(failures),
        "failures": failures[:20],
        "passes": len(passes),
        "metrics": {
            "setup_s": harness.summary(setups),
            "wall_s": harness.summary([p.wall_s for p in passes]),
            "op_p50_ms": latency_metric(0.50),
            "op_p95_ms": latency_metric(0.95),
            "peak_rss_mb": {"value": harness.peak_rss_mb(), "n": 1},
        },
        "raw": {
            "setup_s": harness.summary(setups_raw),
            "wall_s": harness.summary([p.wall_raw_s for p in passes]),
            "host_factor": harness.summary([p.host_factor for p in passes]),
        },
        "phases_s": {"setups": setup_done - started,
                     "warm_up_and_oracles": warm_done - setup_done,
                     "timed_passes": clock() - warm_done},
        "counts": warm.counts,
        "digests": harness.digest(digests),
    }


def run_one(args: argparse.Namespace) -> int:
    """Driver mode: one workload in this process, JSON on the last line."""
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR))
    try:
        if args.trace:
            import layers

            result = layers.measure_traced(args, tmp, OUT_DIR)
            units = {n: row["unit"] for n, row in spec.PER_LAYER.items()}
        else:
            result = measure(args, tmp)
            units = {n: unit for n, (unit, _, _) in spec.END_TO_END.items()}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    result["environment"] = environment(args)
    if args.out:
        args.out.write_text(json.dumps(result, indent=2, default=str) + "\n")
    for failure in result["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for name, unit in units.items():
        print(f"{args.workload:14s} {name:44s} "
              f"{result['metrics'][name]['value']:.6g} {unit}")
    print(json.dumps({
        "correct": result["ops_failed"] == 0,
        "attempted": result["ops_attempted"],
        "failed": result["ops_failed"],
        "metrics": {
            name: {"value": result["metrics"][name]["value"], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if result["ops_failed"] == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Every workload in its own fresh subprocess; one table, one file."""
    OUT_DIR.mkdir(exist_ok=True)
    results: Dict[str, Any] = {}
    status = 0
    for name in spec.WORKLOADS:
        part = OUT_DIR / f"result_{name}.json"
        command = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", name, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--scale", str(args.scale), "--out", str(part),
        ]
        started = time.perf_counter()
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        status = status or done.returncode
        sys.stdout.write("".join(done.stdout.splitlines(keepends=True)[:-1]))
        if part.exists():
            results[name] = json.loads(part.read_text())
            results[name]["run_s"] = time.perf_counter() - started
            part.unlink()
    if args.out:
        args.out.write_text(json.dumps(
            {"traced": bool(args.trace), "workloads": results}, indent=2)
            + "\n")
    failed = sum(r["ops_failed"] for r in results.values())
    attempted = sum(r["ops_attempted"] for r in results.values())
    print(f"ops_attempted {attempted}  ops_failed {failed}")
    return status or (1 if len(results) < len(spec.WORKLOADS) else 0)


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    for name in spec.SCRUBBED_ENV:
        os.environ.pop(name, None)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(spec.benchmark_json(), indent=2) + "\n")
        return 0
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"the program under test is not in this checkout: "
              f"{ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    try:
        return run_one(args) if args.workload else run_all(args)
    finally:
        # On every path out: nothing this run started may outlive it.
        harness.stop_children()


if __name__ == "__main__":
    sys.exit(main())
