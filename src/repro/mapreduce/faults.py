"""Deterministic fault injection for the MapReduce substrate.

Real SpatialHadoop inherits Hadoop's fault tolerance: tasks that crash are
re-executed, stragglers get speculative backups, and lost task trackers
only cost the attempts that ran on them. To test the equivalent machinery
in this simulator we need failures that are *scriptable and repeatable*:
a :class:`FaultPlan` decides, purely from ``(wave, task-index, attempt)``,
whether a task attempt

* ``crash``   — raises :class:`InjectedFault` before the task body runs,
* ``hang``    — runs normally but has extra CPU-seconds added to its
  charge, so it looks like a straggler (and trips per-attempt timeouts),
* ``corrupt`` — runs normally but returns an unusable result, exercising
  driver-side result validation,
* ``kill``    — terminates the worker process mid-chunk (``os._exit``),
  exercising :class:`BrokenProcessPool` recovery. In the driver process
  (the serial backend, or a wave the dispatch gate keeps there), where
  exiting would kill the driver itself, the kill degrades to a
  ``worker-lost`` failure so both backends observe the same attempt
  history.

Plans are seeded and stateless: the same plan produces the same faults on
every run and on every backend, which is what lets the chaos tests assert
bit-identical output against a fault-free run.

Beyond task faults, plans can script *storage* faults against the
durable storage layer (:mod:`repro.mapreduce.storage`):

* ``losenode:<node>``   — datanode ``node`` dies; the namenode
  re-replicates the blocks it held, charged to the simulated makespan,
* ``corruptblock:<file>:<block>[:<replica>]`` — one stored copy of a
  block starts failing its checksum; reads fail over to a healthy
  replica.

Storage faults fire at most once each, at the start of the first job
that runs after their target exists (a ``corruptblock`` against a file
not yet written waits for it).

Plans can also script *driver* faults, keyed by the invocation's global
wave ordinal (wave 0 is the first map wave of the first job, wave 1 the
next wave dispatched, and so on across jobs and rounds):

* ``crashdriver:<wave>[:<fraction>]`` — the driver dies right after
  wave ``<wave>`` commits its checkpoint
  (:class:`~repro.mapreduce.checkpoint.DriverCrashed`); with a
  ``fraction`` in (0, 1], the wave log is first cut inside the
  just-committed wave's frame, keeping that fraction of its bytes,
  exercising torn-tail recovery on resume,
* ``hangdriver:<wave>[:<seconds>]`` — the driver stalls for that many
  *simulated* seconds at the wave boundary, charged to the active
  cancellation token's deadline clock (``--deadline``) so deadline
  tests are deterministic.

Driver faults fire at most once per (wave, plan-entry) and only on
*executed* waves — a resumed run replaying journaled waves never
re-fires the crash that killed it.

Plans can also script *service* faults against the multi-tenant query
service (:mod:`repro.serve`):

* ``burst:<tenant>:<n>`` — the named tenant submits ``n`` extra
  synthetic copies of its request in the same arrival instant,
  exercising admission control and load shedding,
* ``slowtenant:<tenant>:<seconds>`` — every request the named tenant
  executes is charged that many extra *simulated* seconds, turning it
  into a capacity hog the weighted-fair scheduler must contain.

Plans are built programmatically, parsed from a compact spec string
(``--faults`` / ``REPRO_FAULTS``), or both::

    crash:map:1                 # map task 1 crashes on its first attempt
    crash:map:1:1               # ... and again on its second attempt
    kill:map:2                  # the worker running map task 2 dies
    hang:reduce:0:0:30          # reduce task 0's first attempt +30 CPU s
    corrupt:map:*               # every map task's first result is garbage
    random:crash:0.05:42        # every attempt crashes with p=0.05, seed 42
    losenode:3                  # datanode 3 dies (blocks re-replicate)
    corruptblock:pts_idx:0      # replica 0 of block 0 of 'pts_idx' rots
    corruptblock:pts_idx:2:1    # replica 1 of block 2 of 'pts_idx' rots

Entries are comma-separated; task-fault fields are
``kind:wave:task[:attempt[:arg]]`` with ``*`` (or ``-1``) as a wildcard
for wave/task/attempt.
"""

from __future__ import annotations

import multiprocessing
import os
import zlib
from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

#: Environment variable holding a fault-plan spec (chaos CI hook).
FAULTS_ENV_VAR = "REPRO_FAULTS"

#: Recognised task-attempt fault kinds.
FAULT_KINDS = ("crash", "hang", "corrupt", "kill")

#: Recognised storage fault kinds (see repro.mapreduce.storage).
STORAGE_FAULT_KINDS = ("losenode", "corruptblock")

#: Recognised driver fault kinds (see repro.mapreduce.checkpoint).
DRIVER_FAULT_KINDS = ("crashdriver", "hangdriver")

#: Recognised service fault kinds (see repro.serve).
SERVICE_FAULT_KINDS = ("burst", "slowtenant")

#: CPU seconds a ``hang`` fault adds when the spec gives no explicit arg.
DEFAULT_HANG_SECONDS = 30.0

#: Exit code used for injected worker kills (distinguishable in waitpid).
KILL_EXIT_CODE = 137

#: Backoff schedule: ``min(cap, base * 2**(attempt-1)) * jitter`` with
#: jitter deterministically drawn from [0.5, 1.5). Seconds are *simulated*
#: (charged to the cluster-model makespan), never slept.
BACKOFF_BASE_S = 1.0
BACKOFF_CAP_S = 60.0


class InjectedFault(RuntimeError):
    """Raised by a task attempt the fault plan scripted to crash."""


class WorkerKilled(RuntimeError):
    """A task attempt was lost because its worker process died."""


class TaskCorrupted(RuntimeError):
    """A task attempt returned a result that failed validation."""


class TaskTimeoutError(RuntimeError):
    """A task exceeded the per-attempt timeout on its final attempt."""


class RemoteTaskError(RuntimeError):
    """Wraps a worker-side exception that could not be pickled back."""


def in_worker_process() -> bool:
    """True when running inside a multiprocessing worker (not the driver)."""
    return multiprocessing.parent_process() is not None


def retry_backoff(task_id: str, attempt: int, seed: int = 0) -> float:
    """Simulated backoff before ``attempt`` (1-based) of ``task_id``.

    Capped exponential with deterministic jitter: the jitter factor in
    [0.5, 1.5) is derived from a CRC-32 of (seed, task, attempt), so the
    schedule is identical across runs and backends yet decorrelated
    across tasks — the standard thundering-herd fix, minus the wall clock.
    """
    if attempt <= 0:
        return 0.0
    base = min(BACKOFF_CAP_S, BACKOFF_BASE_S * (2.0 ** (attempt - 1)))
    digest = zlib.crc32(f"{seed}|{task_id}|{attempt}".encode("utf-8"))
    jitter = 0.5 + (digest % 10_000) / 10_000.0
    return base * jitter


@dataclass(frozen=True)
class FaultSpec:
    """One scripted fault: which attempt it hits and what it does.

    ``wave`` is ``"map"``, ``"reduce"`` or ``"*"``; ``task`` is the task's
    position in its wave (-1 = any); ``attempt`` is 0-based (-1 = any).
    ``seconds`` only matters for ``hang``.
    """

    kind: str
    wave: str = "*"
    task: int = -1
    attempt: int = 0
    seconds: float = DEFAULT_HANG_SECONDS

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; expected one of "
                f"{', '.join(FAULT_KINDS)}"
            )
        if self.wave not in ("map", "reduce", "*"):
            raise ValueError(f"unknown wave {self.wave!r}")

    def matches(self, wave: str, task: int, attempt: int) -> bool:
        return (
            (self.wave == "*" or self.wave == wave)
            and (self.task < 0 or self.task == task)
            and (self.attempt < 0 or self.attempt == attempt)
        )


@dataclass(frozen=True)
class StorageFault:
    """One scripted storage event: a datanode loss or a replica rot.

    ``losenode`` uses ``node``; ``corruptblock`` uses ``file`` / ``block``
    / ``replica``. Each storage fault fires at most once, at the start of
    the first job that runs after its target exists.
    """

    kind: str
    node: int = -1
    file: str = ""
    block: int = -1
    replica: int = 0

    def __post_init__(self) -> None:
        if self.kind not in STORAGE_FAULT_KINDS:
            raise ValueError(
                f"unknown storage fault kind {self.kind!r}; expected one "
                f"of {', '.join(STORAGE_FAULT_KINDS)}"
            )
        if self.kind == "losenode" and self.node < 0:
            raise ValueError("losenode needs a non-negative node index")
        if self.kind == "corruptblock":
            if not self.file:
                raise ValueError("corruptblock needs a file name")
            if self.block < 0 or self.replica < 0:
                raise ValueError(
                    "corruptblock needs non-negative block/replica indexes"
                )

    def describe(self) -> str:
        if self.kind == "losenode":
            return f"losenode:{self.node}"
        spec = f"corruptblock:{self.file}:{self.block}"
        return spec + (f":{self.replica}" if self.replica else "")


@dataclass(frozen=True)
class DriverFault:
    """One scripted driver death or stall at a wave boundary.

    ``wave`` is the invocation's global wave ordinal (-1 = every wave).
    ``arg`` is the torn-checkpoint fraction for ``crashdriver`` (None =
    the checkpoint commits intact before the crash) and the simulated
    stall seconds for ``hangdriver`` (None = ``DEFAULT_HANG_SECONDS``).
    """

    kind: str
    wave: int = -1
    arg: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in DRIVER_FAULT_KINDS:
            raise ValueError(
                f"unknown driver fault kind {self.kind!r}; expected one "
                f"of {', '.join(DRIVER_FAULT_KINDS)}"
            )
        if self.kind == "crashdriver" and self.arg is not None:
            if not 0.0 <= self.arg <= 1.0:
                raise ValueError(
                    "crashdriver checkpoint fraction must be in [0, 1], "
                    f"got {self.arg}"
                )
        if self.kind == "hangdriver" and self.arg is not None:
            if self.arg < 0:
                raise ValueError(
                    f"hangdriver seconds must be >= 0, got {self.arg}"
                )

    def matches(self, wave_index: int) -> bool:
        return self.wave < 0 or self.wave == wave_index

    def describe(self) -> str:
        spec = f"{self.kind}:{self.wave if self.wave >= 0 else '*'}"
        if self.arg is not None:
            return f"{spec}:{self.arg:g}"
        return spec


@dataclass(frozen=True)
class ServiceFault:
    """One scripted service-level event against :mod:`repro.serve`.

    * ``burst:<tenant>:<n>`` — the named tenant submits ``n`` extra
      synthetic requests in one arrival instant (clones of its current
      request), exercising admission control and load shedding,
    * ``slowtenant:<tenant>:<seconds>`` — every request the named tenant
      runs is charged ``seconds`` extra simulated time, turning it into
      a capacity hog that the weighted-fair scheduler must contain.

    Like task faults these are pure data: the :class:`QueryService`
    consults the plan deterministically, so service chaos tests replay
    bit-identically.
    """

    kind: str
    tenant: str = ""
    amount: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in SERVICE_FAULT_KINDS:
            raise ValueError(
                f"unknown service fault kind {self.kind!r}; expected one "
                f"of {', '.join(SERVICE_FAULT_KINDS)}"
            )
        if not self.tenant:
            raise ValueError(f"{self.kind} needs a tenant name")
        if self.amount < 0:
            raise ValueError(
                f"{self.kind} amount must be >= 0, got {self.amount}"
            )
        if self.kind == "burst" and self.amount != int(self.amount):
            raise ValueError(
                f"burst count must be an integer, got {self.amount}"
            )

    def describe(self) -> str:
        return f"{self.kind}:{self.tenant}:{self.amount:g}"


@dataclass(frozen=True)
class RandomFaults:
    """Seeded background fault rate: each attempt fails with ``rate``.

    The decision is a pure hash of (seed, wave, task, attempt), so a
    given attempt either always faults or never does — rerunning the
    same plan reproduces the same chaos.
    """

    kind: str
    rate: float
    seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"fault rate must be in [0, 1], got {self.rate}")

    def hits(self, wave: str, task: int, attempt: int) -> bool:
        digest = zlib.crc32(
            f"{self.seed}|{wave}|{task}|{attempt}".encode("utf-8")
        )
        return (digest % 1_000_000) < self.rate * 1_000_000


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic script of task-attempt faults.

    Stateless and picklable: the plan ships to worker processes inside
    the job config, and both the driver (serial backend) and the workers
    consult it with the same ``(wave, task, attempt)`` triple.
    """

    specs: Tuple[FaultSpec, ...] = ()
    random: Tuple[RandomFaults, ...] = ()
    seed: int = 0
    storage: Tuple[StorageFault, ...] = ()
    driver: Tuple[DriverFault, ...] = ()
    service: Tuple[ServiceFault, ...] = ()

    @classmethod
    def parse(cls, text: str) -> Optional["FaultPlan"]:
        """Parse a ``--faults`` / ``REPRO_FAULTS`` spec string.

        Returns ``None`` for an empty spec. See the module docstring for
        the grammar.
        """
        specs: List[FaultSpec] = []
        random: List[RandomFaults] = []
        storage: List[StorageFault] = []
        driver: List[DriverFault] = []
        service: List[ServiceFault] = []
        seed = 0
        for raw in text.split(","):
            entry = raw.strip()
            if not entry:
                continue
            fields = entry.split(":")
            head = fields[0].lower()
            if head == "seed":
                seed = _int_field(entry, fields, 1, "seed")
                continue
            if head == "losenode":
                if len(fields) != 2:
                    raise ValueError(
                        f"bad storage fault entry {entry!r}; expected "
                        "losenode:<node>"
                    )
                storage.append(
                    StorageFault(
                        kind="losenode",
                        node=_int_field(entry, fields, 1, "node"),
                    )
                )
                continue
            if head == "corruptblock":
                if len(fields) < 3 or len(fields) > 4:
                    raise ValueError(
                        f"bad storage fault entry {entry!r}; expected "
                        "corruptblock:<file>:<block>[:<replica>]"
                    )
                storage.append(
                    StorageFault(
                        kind="corruptblock",
                        file=fields[1],
                        block=_int_field(entry, fields, 2, "block"),
                        replica=_int_field(entry, fields, 3, "replica")
                        if len(fields) > 3
                        else 0,
                    )
                )
                continue
            if head in DRIVER_FAULT_KINDS:
                if len(fields) < 2 or len(fields) > 3:
                    raise ValueError(
                        f"bad driver fault entry {entry!r}; expected "
                        f"{head}:<wave>[:<arg>]"
                    )
                driver.append(
                    DriverFault(
                        kind=head,
                        wave=_index_field(entry, fields, 1),
                        arg=_float_field(entry, fields, 2, "arg")
                        if len(fields) > 2
                        else None,
                    )
                )
                continue
            if head in SERVICE_FAULT_KINDS:
                if len(fields) != 3:
                    raise ValueError(
                        f"bad service fault entry {entry!r}; expected "
                        f"{head}:<tenant>:"
                        + ("<n>" if head == "burst" else "<seconds>")
                    )
                service.append(
                    ServiceFault(
                        kind=head,
                        tenant=fields[1],
                        amount=_float_field(entry, fields, 2, "amount"),
                    )
                )
                continue
            if head == "random":
                if len(fields) < 3 or len(fields) > 4:
                    raise ValueError(
                        f"bad random fault entry {entry!r}; expected "
                        "random:<kind>:<rate>[:<seed>]"
                    )
                random.append(
                    RandomFaults(
                        kind=fields[1].lower(),
                        rate=_float_field(entry, fields, 2, "rate"),
                        seed=_int_field(entry, fields, 3, "seed")
                        if len(fields) > 3
                        else 0,
                    )
                )
                continue
            if len(fields) < 2 or len(fields) > 5:
                raise ValueError(
                    f"bad fault entry {entry!r}; expected "
                    "kind:wave:task[:attempt[:seconds]]"
                )
            specs.append(
                FaultSpec(
                    kind=head,
                    wave=fields[1].lower() if len(fields) > 1 else "*",
                    task=_index_field(entry, fields, 2),
                    attempt=_index_field(entry, fields, 3)
                    if len(fields) > 3
                    else 0,
                    seconds=_float_field(entry, fields, 4, "seconds")
                    if len(fields) > 4
                    else DEFAULT_HANG_SECONDS,
                )
            )
        if (
            not specs
            and not random
            and not storage
            and not driver
            and not service
        ):
            return None
        return cls(
            specs=tuple(specs),
            random=tuple(random),
            seed=seed,
            storage=tuple(storage),
            driver=tuple(driver),
            service=tuple(service),
        )

    @classmethod
    def from_env(cls) -> Optional["FaultPlan"]:
        """The plan scripted by ``$REPRO_FAULTS``, or ``None``."""
        spec = os.environ.get(FAULTS_ENV_VAR, "").strip()
        if not spec:
            return None
        return cls.parse(spec)

    def lookup(self, wave: str, task: int, attempt: int) -> Optional[FaultSpec]:
        """The fault scripted for this attempt, or ``None``.

        Explicit specs win over random background faults; the first
        matching entry decides, so plans read top to bottom.
        """
        for spec in self.specs:
            if spec.matches(wave, task, attempt):
                return spec
        for rnd in self.random:
            if rnd.hits(wave, task, attempt):
                return FaultSpec(kind=rnd.kind, wave=wave, task=task,
                                 attempt=attempt)
        return None

    def describe(self) -> str:
        parts = [
            f"{s.kind}:{s.wave}:{s.task}"
            + (f":{s.attempt}" if s.attempt != 0 else "")
            for s in self.specs
        ]
        parts.extend(f"random:{r.kind}:{r.rate}:{r.seed}" for r in self.random)
        parts.extend(s.describe() for s in self.storage)
        parts.extend(d.describe() for d in self.driver)
        parts.extend(s.describe() for s in self.service)
        return ",".join(parts) or "<empty>"

    def driver_at(self, wave_index: int) -> List[Tuple[int, DriverFault]]:
        """Driver faults scripted for global wave ``wave_index``.

        Returns ``(plan_position, fault)`` pairs; the position keys the
        fire-once bookkeeping (and the checkpoint manifest's
        fault-plan-position record).
        """
        return [
            (pos, fault)
            for pos, fault in enumerate(self.driver)
            if fault.matches(wave_index)
        ]

    def burst_for(self, tenant: str) -> int:
        """Synthetic extra requests scripted for ``tenant`` (0 if none)."""
        return int(
            sum(
                f.amount
                for f in self.service
                if f.kind == "burst" and f.tenant == tenant
            )
        )

    def slowdown_for(self, tenant: str) -> float:
        """Extra simulated seconds every request of ``tenant`` is charged."""
        return sum(
            f.amount
            for f in self.service
            if f.kind == "slowtenant" and f.tenant == tenant
        )


def resolve_faults(value) -> Optional[FaultPlan]:
    """Coerce a faults knob (plan, spec string, or None) into a plan.

    ``None`` defers to ``$REPRO_FAULTS`` so chaos CI can inject failures
    without touching call sites — mirroring how worker counts resolve.
    """
    if value is None:
        return FaultPlan.from_env()
    if isinstance(value, FaultPlan):
        return value
    if isinstance(value, str):
        return FaultPlan.parse(value)
    raise TypeError(
        f"faults must be a FaultPlan, a spec string or None, got "
        f"{type(value).__name__}"
    )


def _index_field(entry: str, fields: List[str], pos: int) -> int:
    if pos >= len(fields):
        return -1
    token = fields[pos].strip()
    if token in ("*", ""):
        return -1
    try:
        return int(token)
    except ValueError:
        raise ValueError(
            f"bad index {token!r} in fault entry {entry!r}"
        ) from None


def _int_field(entry: str, fields: List[str], pos: int, name: str) -> int:
    try:
        return int(fields[pos])
    except (IndexError, ValueError):
        raise ValueError(
            f"bad {name} in fault entry {entry!r}"
        ) from None


def _float_field(entry: str, fields: List[str], pos: int, name: str) -> float:
    try:
        return float(fields[pos])
    except (IndexError, ValueError):
        raise ValueError(
            f"bad {name} in fault entry {entry!r}"
        ) from None


#: Fault-summary key counting each failure outcome.
_FAILURE_KEYS = {
    "crash": "crashes",
    "worker-lost": "worker_lost",
    "timeout": "timeouts",
    "corrupt": "corrupt",
}

#: Fault-summary keys in report order.
_SUMMARY_ORDER = ("retries", "timeouts", "corrupt", "worker_lost", "crashes",
                  "speculative", "faults_injected", "backoff_s")


def fault_summary(plan: Optional[FaultPlan], waves) -> Dict[str, float]:
    """Fault activity of ``waves``, counted from their attempt records.

    ``waves`` holds ``(wave, attempts)`` pairs, one list of
    :class:`~repro.mapreduce.cluster.TaskAttempt` records per task. Failure outcomes and ``retries`` count primary attempts
    (speculative backups never fail a wave), ``speculative`` counts
    backups, and ``faults_injected`` every recorded attempt the plan
    scripted — including ``hang``, whose only trace is an inflated CPU
    charge. ``backoff_s`` sums each wave in dispatch order (by attempt,
    then task) so the float total is the same on every backend. Zero
    entries are omitted.
    """
    tally: Dict[str, float] = defaultdict(int)
    backoff = 0.0
    for wave, attempts in waves:
        waits = []
        for i, history in enumerate(attempts):
            for a in history:
                if plan is not None and plan.lookup(wave, i, a.attempt):
                    tally["faults_injected"] += 1
                if a.speculative:
                    tally["speculative"] += 1
                elif a.outcome in _FAILURE_KEYS:
                    tally["retries"] += 1
                    tally[_FAILURE_KEYS[a.outcome]] += 1
                if a.backoff_s:
                    waits.append((a.attempt, i, a.backoff_s))
        if waits:
            backoff += sum(wait for _, _, wait in sorted(waits))
    if backoff:
        tally["backoff_s"] = backoff
    if not tally:
        return {}
    return {key: tally[key] for key in _SUMMARY_ORDER if key in tally}
