"""Compare two result files of ``run.py --out``: A is the parent, B the change.

    python3 benchmarks/core/compare.py A.json B.json

One row per (end-to-end metric, workload): both medians with quartiles,
the change in the worse direction, the metric's bound, and a verdict:
``ok`` (not worse by more than the bound), ``regression`` (worse by more
than the bound) or ``unresolved`` (A's own quartile spread is wider than
the bound, so the bound cannot be resolved). For traced files the exact
per-layer counts must be equal. Exits non-zero on a regression, on an
exact count that differs, or on a higher share of failed ops.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spec  # noqa: E402


def _worse_by(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    change = (b - a) / a if a else 0.0
    return change if better == "lower" else -change


def compare(a: Dict[str, Any], b: Dict[str, Any]) -> List[Dict[str, Any]]:
    rows: List[Dict[str, Any]] = []
    traced = a.get("traced", False)
    table = spec.PER_LAYER if traced else spec.END_TO_END
    for workload in spec.WORKLOADS:
        if workload not in a["workloads"] or workload not in b["workloads"]:
            rows.append({"workload": workload, "metric": "(all)",
                         "verdict": "missing"})
            continue
        wa, wb = a["workloads"][workload], b["workloads"][workload]
        share_a = wa["ops_failed"] / wa["ops_attempted"]
        share_b = wb["ops_failed"] / wb["ops_attempted"]
        if share_b > share_a:
            rows.append({"workload": workload, "metric": "ops_failed",
                         "a": share_a, "b": share_b, "verdict": "regression"})
        for metric, row in table.items():
            ma = wa["metrics"][metric]
            mb = wb["metrics"][metric]
            entry = {"workload": workload, "metric": metric,
                     "a": ma["value"], "b": mb["value"]}
            if traced:
                if not row["exact"]:
                    continue
                entry["verdict"] = (
                    "ok" if ma["value"] == mb["value"] else "regression")
            else:
                _unit, better, bound = row
                worse = _worse_by(ma["value"], mb["value"], better)
                spread = ((ma["q3"] - ma["q1"]) / ma["value"]
                          if "q1" in ma else 0.0)
                entry.update(
                    a_quartiles=(ma.get("q1"), ma.get("q3")),
                    b_quartiles=(mb.get("q1"), mb.get("q3")),
                    worse_by=worse, bound=bound, spread=spread)
                if spread > bound:
                    entry["verdict"] = "unresolved"
                else:
                    entry["verdict"] = "regression" if worse > bound else "ok"
            rows.append(entry)
    return rows


def _fmt(value: Any) -> str:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in argv)
    if a.get("traced", False) != b.get("traced", False):
        print("one file is a traced run and the other is not", file=sys.stderr)
        return 2
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb and wa["environment"] != wb["environment"]:
            print(f"warning: {name}: environments differ: "
                  f"{wa['environment']} vs {wb['environment']}",
                  file=sys.stderr)
    rows = compare(a, b)
    print(f"{'workload':14s} {'metric':34s} {'A':>10s} {'A q1..q3':>21s} "
          f"{'B':>10s} {'B q1..q3':>21s} {'worse by':>9s} {'bound':>6s} "
          "verdict")
    for row in rows:
        aq = row.get("a_quartiles") or ("", "")
        bq = row.get("b_quartiles") or ("", "")
        worse = row.get("worse_by")
        print(f"{row['workload']:14s} {row['metric']:34s} "
              f"{_fmt(row.get('a', '')):>10s} "
              f"{_fmt(aq[0]) + '..' + _fmt(aq[1]):>21s} "
              f"{_fmt(row.get('b', '')):>10s} "
              f"{_fmt(bq[0]) + '..' + _fmt(bq[1]):>21s} "
              f"{'' if worse is None else format(worse, '+.1%'):>9s} "
              f"{_fmt(row.get('bound', '')):>6s} {row['verdict']}")
    bad = [r for r in rows if r["verdict"] in ("regression", "missing")]
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
