"""Measurement core: ops, passes, digests, host calibration, statistics.

A workload is a fixed list of :class:`Op` over a system built from the
seed. A run is set-up, one untimed warm-up pass that also checks every
answer against its oracle, then timed passes of the same list. Every op
is timed alone with ``time.perf_counter``; the harness's own work between
ops (digests, calibration, resets) is outside every timed region.
"""

from __future__ import annotations

import collections
import gc
import hashlib
import marshal
import math
import operator
import os
import resource
import signal
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: What one :func:`spin` takes on the reference box at its usual speed.
#: Times are reported as ``measured * SPIN_REF_S / spin`` (README,
#: "Steadiness"), so the constant only fixes the scale of the result.
SPIN_REF_S = 0.0050

#: A pass re-calibrates after this much op time since the last spin.
SPIN_EVERY_S = 0.05


class _Cell:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def spin() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's speed now.

    The host slows by up to 2x for seconds at a time, interpreter-bound
    code (which is what the system under test is) following it closely.
    The loop mixes arithmetic with the allocation, attribute access,
    dict and sort work the engine's own hot paths do. The collector is
    paused so the loop's allocations never pay for scanning the loaded
    datasets.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        acc = 0
        for i in range(30_000):
            acc += i * i % 7
        cells = [_Cell(i * 0.5, (i * 7919) % 1000) for i in range(6_000)]
        buckets: Dict[int, List[_Cell]] = {}
        for cell in cells:
            buckets.setdefault(int(cell.y) // 10, []).append(cell)
        for bucket in buckets.values():
            bucket.sort(key=lambda c: c.x)
        acc += sum(len(repr((c.x, c.y))) for c in cells[:1_000])
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


def digest(canonical: Any) -> str:
    """SHA-256 of an answer's canonical form.

    Marshal version 2 writes plain values (numbers, strings, tuples,
    lists) by value with no back-references, so equal forms give equal
    bytes; it is much faster than ``repr`` on thousands of floats.
    """
    try:
        data = marshal.dumps(canonical, 2)
    except ValueError:
        data = repr(canonical).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


_COORDINATES = (
    operator.attrgetter("x1", "y1", "x2", "y2"),  # rectangles
    operator.attrgetter("x", "y"),  # points
)


def record_keys(records: Any) -> List[Any]:
    """One sortable key per record, in the order given.

    Plain points and rectangles, which is what most answers hold, become
    coordinate tuples; anything else its ``repr``.
    """
    records = list(records)
    for coordinates in _COORDINATES:
        try:
            return list(map(coordinates, records))
        except AttributeError:
            continue
    return list(map(repr, records))


def canon_records(records: Any) -> List[Any]:
    """Order-free canonical form of a record collection."""
    return sorted(record_keys(records))


def canon_pairs(pairs: Any) -> List[Any]:
    """Order-free canonical form of a collection of record pairs."""
    pairs = list(pairs)
    return sorted(zip(record_keys(a for a, _ in pairs),
                      record_keys(b for _, b in pairs)))


@dataclass
class Op:
    """One operation of a workload's op list.

    ``call`` goes through a public function of the system and is the only
    timed part. ``canon`` reduces its result to the canonical form that is
    digested; ``expect`` returns what the oracle says that form must be
    (``same`` compares the two, exact equality unless overridden).
    """

    cls: str
    call: Callable[[], Any]
    canon: Callable[[Any], Any]
    expect: Callable[[], Any]
    same: Callable[[Any, Any], bool] = lambda got, want: got == want
    reset: Optional[Callable[[], None]] = None


@dataclass
class Workload:
    """A built system plus its op list (see ``workloads.py``)."""

    name: str
    sizes: Dict[str, int]
    ops: List[Op]
    begin_pass: Callable[[], None] = lambda: None
    end_pass: Callable[[], List[str]] = lambda: []
    close: Callable[[], None] = lambda: None
    #: Anything a per-layer derivation wants to look at afterwards.
    state: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PassResult:
    wall_raw_s: float
    host_factor: float
    latencies_raw_s: List[float]
    failures: List[str]
    counts: Dict[str, float]
    cpu_s: float

    @property
    def wall_s(self) -> float:
        return self.wall_raw_s / self.host_factor


def jobs_of(result: Any) -> List[Any]:
    """Every ``JobResult`` behind a public result object."""
    if isinstance(result, list):  # a burst of small queries
        return [job for one in result for job in jobs_of(one)]
    if hasattr(result, "jobs"):
        return list(result.jobs)
    if hasattr(result, "operations"):  # pigeon ScriptResult
        return [job for op in result.operations for job in jobs_of(op)]
    if hasattr(result, "cache_hit"):  # serve Response
        return [] if result.cache_hit else jobs_of(result.result)
    return []


def _count_jobs(counts: Dict[str, float], result: Any) -> None:
    for job in jobs_of(result):
        counters = job.counters
        counts["rounds"] += 1
        counts["map_tasks"] += counters.get("MAP_TASKS")
        counts["blocks_read"] += counters.get("BLOCKS_READ")
        counts["blocks_total"] += counters.get("BLOCKS_TOTAL")
        counts["blocks_pruned"] += counters.get("BLOCKS_PRUNED")
        counts["shuffle_records"] += counters.get("SHUFFLE_RECORDS")
        counts["shuffle_bytes"] += counters.get("SHUFFLE_BYTES")
        counts["tasks_retried"] += job.tasks_retried
        counts["makespan_s"] += job.makespan


def leaked_shm_segments() -> List[str]:
    """Shared-memory segments the engine still holds (none, if a later
    change settles dispatch without the shm module)."""
    try:
        from repro.mapreduce import shm
    except ImportError:
        return []
    return shm.live_segments()


def _child_pids() -> List[int]:
    """Direct children of this process that still exist, zombies too."""
    own = os.getpid()
    found: List[int] = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                # "pid (comm) state ppid ..."; comm may hold spaces.
                fields = handle.read().rpartition(")")[2].split()
        except OSError:
            continue  # ended while we looked
        if int(fields[1]) == own:
            found.append(int(entry))
    return found


def _end(children: Callable[[], List[int]], grace_s: float) -> None:
    """Reap ``children()`` as they end; after ``grace_s`` terminate, then kill."""
    for signum in (None, signal.SIGTERM, signal.SIGKILL):
        for pid in children() if signum else ():
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        deadline = time.perf_counter() + grace_s
        while True:
            pending = children()
            for pid in pending:
                try:
                    os.waitpid(pid, os.WNOHANG)
                except ChildProcessError:
                    pass  # reaped elsewhere
            if not pending:
                return
            if time.perf_counter() >= deadline:
                break
            time.sleep(0.01)


def stop_children(grace_s: float = 3.0) -> None:
    """End every process this one started and wait until each has ended.

    ``multiprocessing``'s resource tracker (started by the engine's
    shared-memory arenas) only exits once every process holding its pipe
    has let go, its parent last, so it would outlive the run. Pool workers
    an exception kept alive hold that pipe too: they go first, then the
    tracker is stopped and reaped.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    _end(lambda: [pid for pid in _child_pids()
                  if pid != getattr(tracker, "_pid", None)], grace_s)
    gc.collect()  # a dropped arena unlinks now, not after the tracker stops
    try:
        tracker._stop()
    except Exception:  # a CPython without _stop: ended below like the rest
        pass
    _end(_child_pids, grace_s)


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def run_pass(
    workload: Workload,
    digests: List[Optional[str]],
    verify: bool = False,
) -> PassResult:
    """One pass over the op list.

    ``digests`` holds each op's digest from the warm-up pass (``None``
    entries are filled in, which is what the warm-up pass does). With
    ``verify`` every answer is also compared with its oracle.
    """
    workload.begin_pass()
    gc.collect()
    failures: List[str] = []
    latencies: List[float] = []
    counts: Dict[str, float] = collections.Counter()
    spins = [spin()]
    since_spin = 0.0
    cpu_before = _cpu_seconds()
    for index, op in enumerate(workload.ops):
        label = f"{workload.name}[{index}] {op.cls}"
        if op.reset is not None:
            op.reset()
        start = time.perf_counter()
        try:
            result = op.call()
        except Exception:  # an op that raises is a failed op, not a crash
            latencies.append(time.perf_counter() - start)
            failures.append(f"{label}: raised\n{traceback.format_exc()}")
            continue
        end = time.perf_counter()
        latencies.append(end - start)
        since_spin += end - start
        if since_spin >= SPIN_EVERY_S:
            spins.append(spin())
            since_spin = 0.0
        canonical = op.canon(result)
        found = digest(canonical)
        if digests[index] is None:
            digests[index] = found
        elif digests[index] != found:
            failures.append(f"{label}: digest differs between passes")
        if verify:
            try:
                if not op.same(canonical, op.expect()):
                    failures.append(f"{label}: differs from its oracle")
            except Exception:
                failures.append(
                    f"{label}: oracle raised\n{traceback.format_exc()}")
        _count_jobs(counts, result)
        # Canonical forms and digests are the harness's garbage, and they
        # push the interpreter's next full collection into whichever op the
        # seed puts after them (60-100 ms on one index build out of
        # eleven). Once one is due by count the harness takes it here,
        # untimed.
        if gc.get_count()[2] >= gc.get_threshold()[2]:
            del result, canonical
            gc.collect()
    cpu_s = _cpu_seconds() - cpu_before
    spins.append(spin())
    failures.extend(workload.end_pass())
    return PassResult(
        wall_raw_s=sum(latencies),
        host_factor=statistics.fmean(spins) / SPIN_REF_S,
        latencies_raw_s=latencies,
        failures=failures,
        counts=counts,
        cpu_s=cpu_s,
    )


def timed(fn: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Call ``fn`` between two spins: (result, raw seconds, host factor)."""
    before = spin()
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    return result, raw, (before + spin()) / 2 / SPIN_REF_S


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and sample count of a metric's samples."""
    values = list(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "q1": q1, "q3": q3, "n": len(values),
    }


def percentile(sorted_values: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sample."""
    rank = math.ceil(share * len(sorted_values)) - 1
    return sorted_values[max(0, min(len(sorted_values) - 1, rank))]


def peak_rss_mb() -> float:
    """High-water resident set of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024  # Linux reports KiB
