"""Per-task phase profiler: where does a task's wall time actually go?

Counters and traces say *what* the engine did; this module says *where
the time went* inside one task — split fetch, columnar decode, batch
kernel, local R-tree probe, the map/reduce body itself, shuffle
serialization. Instrumented sites sit on the hot paths of
``runtime.py``, ``executor.py``, ``columnar.py`` and the R-tree, so
the design is dominated by two constraints:

* **Near-zero cost when off.** The collector is a module-global that is
  ``None`` unless a profiled task is in flight; every instrumented site
  guards on that before touching a clock. Profiling is opt-in — the
  ``REPRO_PROFILE`` environment variable, ``Recorder(profile=True)``
  or the CLI ``--profile`` flag.
* **No imports from the rest of the package.** The hot modules this
  instruments are reached from ``repro.mapreduce.__init__``; importing
  the observability package from them would close an import cycle.
  This module is therefore stdlib-only, and the hot modules import it
  lazily inside the instrumented function.

Phase timings are **wall-clock and volatile**: they differ between
serial and parallel runs, between machines.
They therefore never ride the counters channel (which the backend
equivalence tests compare bit-for-bit) — tasks ship them as a separate
trailing element of the task result tuple, and everything downstream
(JobHistory, ANALYZE actuals, the telemetry scrape log) treats them as
timing data to be stripped before any determinism comparison.

Aggregated profiles use a flat two-level path form — ``"map/kernel"``,
``"driver/split-fetch"`` — mapping to ``{"s": seconds, "n": count}``.
:func:`collapse` turns that into collapsed-stack lines
(``job;map;kernel 123``) for flamegraph rendering.
"""

from __future__ import annotations

import os
from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

#: Environment toggle: any of 1/true/on/yes enables profiling.
PROFILE_ENV_VAR = "REPRO_PROFILE"

_ON_VALUES = {"1", "true", "on", "yes"}

#: Worker-side phases recorded inside a task body.
TASK_PHASES: Tuple[str, ...] = (
    "columnar-decode",
    "kernel",
    "rtree-probe",
)

#: Driver-side phases recorded around the waves.
DRIVER_PHASES: Tuple[str, ...] = (
    "split-fetch",
    "shuffle-serialize",
)

#: The in-flight accumulator: ``{phase: [seconds, count]}`` or None.
_active: Optional[Dict[str, List[float]]] = None


def env_enabled() -> bool:
    """True when ``REPRO_PROFILE`` asks for profiling."""
    return os.environ.get(PROFILE_ENV_VAR, "").strip().lower() in _ON_VALUES


def resolve(flag: Optional[bool] = None) -> bool:
    """Effective profiling decision: explicit flag wins, env is fallback."""
    if flag is not None:
        return bool(flag)
    return env_enabled()


def is_active() -> bool:
    return _active is not None


def add(name: str, seconds: float, count: int = 1) -> None:
    """Charge ``seconds`` to phase ``name`` of the in-flight accumulator."""
    acc = _active
    if acc is None:
        return
    slot = acc.get(name)
    if slot is None:
        acc[name] = [seconds, count]
    else:
        slot[0] += seconds
        slot[1] += count


class phase:
    """Context manager charging its elapsed wall time to one phase.

    A no-op (no clock read, no allocation beyond the manager itself)
    when no profiled task is in flight, so it is safe on hot paths.
    """

    __slots__ = ("name", "_t0")

    def __init__(self, name: str):
        self.name = name
        self._t0 = None

    def __enter__(self):
        if _active is not None:
            self._t0 = perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        t0 = self._t0
        if t0 is not None:
            add(self.name, perf_counter() - t0)
            self._t0 = None
        return False


class task_scope:
    """Collector for one task attempt's phases.

    ``with task_scope(enabled) as prof:`` installs a fresh accumulator
    when ``enabled`` (nesting keeps the outermost), times the whole body
    under ``"self"`` minus inner phases on exit, and leaves ``prof`` — a
    plain ``{phase: [seconds, count]}`` dict, empty when disabled — as
    the value to ship back to the driver.
    """

    __slots__ = ("enabled", "profile", "_installed", "_t0")

    def __init__(self, enabled: bool):
        self.enabled = bool(enabled)
        self.profile: Dict[str, List[float]] = {}
        self._installed = False
        self._t0 = 0.0

    def __enter__(self) -> Dict[str, List[float]]:
        global _active
        if self.enabled and _active is None:
            _active = self.profile
            self._installed = True
            self._t0 = perf_counter()
        return self.profile

    def __exit__(self, exc_type, exc, tb):
        global _active
        if self._installed:
            elapsed = perf_counter() - self._t0
            _active = None
            self._installed = False
            inner = sum(slot[0] for slot in self.profile.values())
            self.profile["self"] = [max(0.0, elapsed - inner), 1]
        return False


# ----------------------------------------------------------------------
# Aggregation: task dicts -> job profile -> collapsed stacks
# ----------------------------------------------------------------------
def merge_into(
    profile: Dict[str, Dict[str, float]],
    phases: Dict[str, List[float]],
    prefix: str,
) -> None:
    """Fold one task's ``{phase: [s, n]}`` under ``prefix/`` of a job profile."""
    for name, slot in phases.items():
        key = f"{prefix}/{name}"
        entry = profile.get(key)
        if entry is None:
            profile[key] = {"s": float(slot[0]), "n": int(slot[1])}
        else:
            entry["s"] += float(slot[0])
            entry["n"] += int(slot[1])


def merge_profiles(
    into: Dict[str, Dict[str, float]],
    other: Dict[str, Dict[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Fold one job profile into another (phase-wise sum)."""
    for key, entry in other.items():
        slot = into.get(key)
        if slot is None:
            into[key] = {"s": float(entry["s"]), "n": int(entry["n"])}
        else:
            slot["s"] += float(entry["s"])
            slot["n"] += int(entry["n"])
    return into


def total_seconds(profile: Dict[str, Dict[str, float]]) -> float:
    return sum(entry["s"] for entry in profile.values())


def collapse(
    profile: Dict[str, Dict[str, float]],
    root: str = "job",
    scale: float = 1e6,
) -> List[str]:
    """Collapsed-stack lines (``root;map;kernel 1234``) from a job profile.

    Values are integer microseconds by default (flamegraph convention is
    integer sample counts); zero-weight frames are dropped. Lines are
    sorted for deterministic output.
    """
    lines = []
    for key in sorted(profile):
        weight = int(round(profile[key]["s"] * scale))
        if weight <= 0:
            continue
        stack = ";".join([root] + key.split("/"))
        lines.append(f"{stack} {weight}")
    return lines


def render_report(
    profile: Dict[str, Dict[str, float]], indent: str = "  "
) -> str:
    """Text table of a job profile: phase, calls, seconds, share."""
    if not profile:
        return f"{indent}(no phase data — run with --profile)"
    total = total_seconds(profile) or 1.0
    rows = [f"{indent}{'phase':<28} {'calls':>8} {'seconds':>10} {'share':>7}"]
    for key in sorted(profile, key=lambda k: -profile[k]["s"]):
        entry = profile[key]
        rows.append(
            f"{indent}{key:<28} {int(entry['n']):>8d} "
            f"{entry['s']:>10.4f} {100.0 * entry['s'] / total:>6.1f}%"
        )
    return "\n".join(rows)
