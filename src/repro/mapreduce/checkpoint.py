"""Crash-consistent driver checkpointing and cooperative cancellation.

PR 4 made *tasks* fault tolerant and the storage layer made *blocks*
durable, but the driver itself remained a single point of failure: a
crash or Ctrl-C mid-operation lost every completed wave, and multi-round
operations (kNN correctness rounds, closest-pair) restarted from zero.
Real SpatialHadoop inherits JobTracker restart/recovery from Hadoop;
this module gives the simulated driver the same contract.

The design leans on a property the runner already guarantees: waves are
deterministic. Given the same workspace, command and fault plan, the
driver executes the same sequence of waves with the same inputs, and the
merge of a wave's task results back into counters, traces, history and
telemetry is a pure function of the wave's ``(results, attempts,
summary)`` triple. So a checkpoint does not need to freeze the whole
driver — it only needs to journal each wave's result triple. A resumed
run re-issues the original command and the runner *replays* journaled
waves instead of executing them; every downstream effect (counters,
history records, normalized traces, operation answers) is then
bit-identical to an uninterrupted run by construction.

On disk, a checkpointed run is a directory::

    <workspace>.ckpt/
        MANIFEST.json        # run config, status, fired driver faults
        wave-00000.ckpt      # wave 0's (results, attempts, summary)
        wave-00001.ckpt      # ...

Wave files use the workspace frame (magic + version + CRC-32 + length
header around a pickle payload, :func:`repro.core.workspace.write_framed`)
and are committed atomically — temp + rename — so a crash leaves either
a complete checkpoint or none. Commits are
idempotent: re-committing wave N simply replaces wave N. The manifest
records the command, workspace, fault-plan spec and the *fault-plan
position* (which driver faults already fired), so a resumed run does not
re-fire the crash that killed it.

Corruption policy — two distinct failure modes, two behaviours:

* a torn/corrupt **wave file** (e.g. the ``crashdriver:<wave>:<fraction>``
  chaos fault, which shreds the final checkpoint before dying) is treated
  as a cache miss: the wave re-executes and the commit replaces the bad
  file. Recovery must never be blocked by the very crash it recovers from.
* a corrupt **manifest**, or a wave file whose fingerprint does not match
  the wave about to run (the workspace changed underneath the journal),
  raises the typed :class:`CheckpointCorruptError` — never a bare
  ``UnpicklingError``. ``repro fsck`` surfaces both via
  :func:`fsck_checkpoints`.

Cooperative cancellation rides the same layer: a
:class:`CancellationToken` (armed by ``--deadline`` and the CLI's
SIGINT/SIGTERM handlers) is polled at task, wave and round boundaries —
:func:`check_active` is the driver-side poll the executors call between
tasks — and stopping raises :class:`RunCancelled` /
:class:`DeadlineExceeded` out of the runner, past the pool
cleanup path, leaving a resumable journal behind.
"""

from __future__ import annotations

import gc
import json
import os
import pickle
import shutil
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.core.workspace import FRAME_HEADER as _HEADER
from repro.core.workspace import atomic_write, read_framed, write_framed
from repro.mapreduce.types import TaskResult

#: Wave-file magic; deliberately the same length as the workspace magic.
MAGIC = b"REPROCKP"
#: v3 journals task results as :class:`TaskResult` objects, with bulk
#: record lists (Feature lists too) packed as columnar payloads; any
#: other version reads as a corrupt wave (a cache miss that re-executes).
FORMAT_VERSION = 3

#: Manifest schema version.
MANIFEST_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"

#: Suffix of the default checkpoint directory, next to the workspace.
CHECKPOINT_DIR_SUFFIX = ".ckpt"


# ----------------------------------------------------------------------
# Errors
# ----------------------------------------------------------------------
class CheckpointError(Exception):
    """Base class for checkpoint persistence failures."""


class CheckpointCorruptError(CheckpointError):
    """A checkpoint file is truncated, bit-flipped, stale, or unreadable."""


class CheckpointNotFoundError(CheckpointError):
    """No resumable run exists where one was expected."""


class RunInterrupted(RuntimeError):
    """Base class for a driver run stopping before its command finished."""


class DriverCrashed(RunInterrupted):
    """The fault plan scripted the driver itself to die at a wave boundary."""


class RunCancelled(RunInterrupted):
    """A cooperative cancellation (signal) stopped the run at a boundary."""


class DeadlineExceeded(RunCancelled):
    """The run overran its ``--deadline`` budget and stopped at a boundary."""


# ----------------------------------------------------------------------
# Cooperative cancellation
# ----------------------------------------------------------------------
class CancellationToken:
    """A cancel flag plus an optional deadline, polled at boundaries.

    The deadline clock is wall time *plus* any simulated driver stalls
    injected by ``hangdriver`` faults (:meth:`add_hang`), so deadline
    tests are deterministic: a scripted 30 s stall trips a 5 s deadline
    on every backend without sleeping.
    """

    def __init__(self, deadline_s: Optional[float] = None):
        self.deadline_s = deadline_s
        self.reason = ""
        #: Signal number that requested the cancel, when one did (the
        #: CLI turns it into the conventional 128+N exit code).
        self.signum: Optional[int] = None
        self.simulated_hang_s = 0.0
        self._cancelled = False
        self._started = time.monotonic()

    @property
    def cancelled(self) -> bool:
        return self._cancelled

    @property
    def elapsed_s(self) -> float:
        return (time.monotonic() - self._started) + self.simulated_hang_s

    def cancel(self, reason: str = "cancelled",
               signum: Optional[int] = None) -> None:
        """Request a stop at the next task/wave/round boundary."""
        self._cancelled = True
        self.reason = reason
        if signum is not None:
            self.signum = signum

    def add_hang(self, seconds: float) -> None:
        """Charge a simulated driver stall against the deadline clock."""
        self.simulated_hang_s += max(0.0, float(seconds))

    def check(self) -> None:
        """Raise if the run should stop; the boundary poll."""
        if self._cancelled:
            raise RunCancelled(self.reason or "run cancelled")
        if self.deadline_s is not None and self.elapsed_s > self.deadline_s:
            raise DeadlineExceeded(
                f"deadline of {self.deadline_s:.3f}s exceeded "
                f"({self.elapsed_s:.3f}s elapsed"
                + (
                    f", {self.simulated_hang_s:.3f}s of injected driver stall"
                    if self.simulated_hang_s
                    else ""
                )
                + ")"
            )


#: The driver's live token, polled by executors between tasks. A module
#: global (not an executor attribute) so it can never leak into a
#: pickled workspace, and worker processes — which never set it — poll
#: a permanent no-op. The driver is single-threaded, so one slot is
#: enough.
_ACTIVE_TOKEN: Optional[CancellationToken] = None


def set_active_token(token: Optional[CancellationToken]) -> None:
    """Install (or clear) the token :func:`check_active` polls."""
    global _ACTIVE_TOKEN
    _ACTIVE_TOKEN = token


def check_active() -> None:
    """Task-boundary cancellation poll; free when no token is armed."""
    if _ACTIVE_TOKEN is not None:
        _ACTIVE_TOKEN.check()


# ----------------------------------------------------------------------
# Wave-file framing
# ----------------------------------------------------------------------
#: Below this length a record list is pickled as-is: the columnar
#: transpose has per-call overhead that only pays off in bulk.
_COLUMNAR_MIN = 64

#: Containers larger than this are not walked element-by-element when
#: they fail the bulk encodings — the walk itself would cost more than
#: pickling ever could.
_WALK_MAX = 512


def _thaw_records(payload) -> list:
    return payload.materialize()


def _thaw_pairs(left: list, right: list) -> list:
    return list(zip(left, right))


class _Packed:
    """A stand-in that unpickles *as* the value it replaced.

    ``_pack`` swaps large homogeneous record lists for one of these;
    pickle serialises the columnar reduce tuple instead of 50k record
    objects, and the load side rebuilds the original list with no
    checkpoint-specific decode step.
    """

    __slots__ = ("_reduce_tuple",)

    def __init__(self, reduce_tuple: tuple):
        self._reduce_tuple = reduce_tuple

    def __reduce__(self):
        return self._reduce_tuple


def _pack_list(lst: list) -> Any:
    from repro.mapreduce.columnar import ColumnarPayload

    payload = ColumnarPayload.from_records(lst)
    if payload is not None:
        return _Packed((_thaw_records, (payload,)))
    # Keyed emissions and join pairs: transpose with zip (C speed) and
    # encode each side on its own, worthwhile whenever at least one side
    # columnarises. The per-element type check is load-bearing: Points
    # are iterable, so without it a mixed list could zip apart and thaw
    # back as plain tuples.
    if type(lst[0]) is tuple and set(map(type, lst)) == {tuple}:
        try:
            left, right = zip(*lst, strict=True)
        except ValueError:
            return lst
        left = _pack_list(list(left))
        right = _pack_list(list(right))
        if isinstance(left, _Packed) or isinstance(right, _Packed):
            return _Packed((_thaw_pairs, (left, right)))
    return lst


def _pack(obj: Any) -> Any:
    """Shallow structural walk swapping bulk record lists for columns.

    A task result's emitted pairs and output records are packed; tuples
    and small dicts (the wave record itself) are walked; lists first try
    the bulk encodings and are only walked element-wise while small.
    Scalars and everything exotic pass through to plain pickle.
    """
    t = type(obj)
    if t is TaskResult:
        return TaskResult(
            obj.records_in, obj.counters, _pack(obj.emitted),
            _pack(obj.output), obj.seconds, obj.events, obj.phases,
        )
    if t is tuple:
        return tuple(_pack(e) for e in obj)
    if t is list:
        if len(obj) >= _COLUMNAR_MIN:
            packed = _pack_list(obj)
            if packed is not obj:
                return packed
        if len(obj) <= _WALK_MAX:
            return [_pack(e) for e in obj]
        return obj
    if t is dict and len(obj) <= _WALK_MAX:
        return {k: _pack(v) for k, v in obj.items()}
    return obj


def write_checkpoint_file(path: Path, obj: Any) -> None:
    """Atomically persist ``obj`` under the checkpoint framing.

    Three hot-path economies, all invisible to the read side:

    * Bulk Point/Rectangle lists (bare or as Features) inside the wave
      payload are transposed into flat float64 columns before pickling
      (``_pack``) — ~5x less serialisation time and ~35% fewer bytes
      than object pickling, and ``pickle.loads`` rebuilds the original
      lists unaided.
    * No fsync: the CRC framing means a torn wave file reads as corrupt
      and replays as a cache miss, so durability against power loss buys
      nothing the read path doesn't already absorb.
    * Garbage collection pauses for the duration. Packing a megabyte
      wave allocates enough temporaries to trip a full collection right
      here, charging a scan of the *application's* heap to the journal;
      the temporaries all die before re-enable, so deferring costs the
      eventual collection nothing.

    Together these keep wave commits inside the <5% fault-free overhead
    budget (E16).
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        payload = pickle.dumps(
            _pack(obj), protocol=pickle.HIGHEST_PROTOCOL
        )
        write_framed(path, MAGIC, FORMAT_VERSION, payload, sync=False)
    finally:
        if was_enabled:
            gc.enable()


def read_checkpoint_file(path: Path) -> Any:
    """Decode one wave file, verifying magic, version, length and CRC.

    Every failure mode raises :class:`CheckpointCorruptError` with the
    cause spelled out — callers that *tolerate* corruption (the replay
    path, fsck) catch that one type.
    """
    version, payload = read_framed(
        path, MAGIC, "checkpoint", CheckpointCorruptError
    )
    if version != FORMAT_VERSION:
        raise CheckpointCorruptError(
            f"checkpoint {path} uses format v{version}; this release "
            f"reads v{FORMAT_VERSION}"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise CheckpointCorruptError(
            f"checkpoint {path} passed its checksum but failed to decode "
            f"({type(exc).__name__}: {exc})"
        ) from exc


def default_checkpoint_dir(workspace_path: Path) -> Path:
    """The conventional checkpoint directory for a workspace file."""
    workspace_path = Path(workspace_path)
    return workspace_path.with_name(
        workspace_path.name + CHECKPOINT_DIR_SUFFIX
    )


def _wave_file_name(index: int) -> str:
    return f"wave-{index:05d}.ckpt"


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """One checkpointed run: its directory, manifest and wave journal.

    Create one with :meth:`create` (fresh run) or :meth:`load` (resume),
    then hand it to ``JobRunner.set_checkpoint``. The runner calls
    :meth:`replay` at each wave boundary — a hit short-circuits the wave
    — and :meth:`commit` after each executed wave. :meth:`finish`
    garbage-collects the directory once the command completed.
    """

    def __init__(self, directory: Path, manifest: Dict[str, Any]):
        self.directory = Path(directory)
        self.manifest = manifest
        #: Wave indexes journaled on disk when this manager was opened.
        self._available = self._scan_waves()
        #: Activity counters for the recovery report (this invocation).
        self.waves_replayed = 0
        self.waves_committed = 0
        #: ``(index, message)`` of journaled waves that had to be
        #: discarded as corrupt and re-executed.
        self.corrupt_skipped: List[Tuple[int, str]] = []
        #: Wall seconds this manager spent journaling — arming, wave
        #: commits, replay reads and final GC. This is the *attributed*
        #: cost of crash consistency, the number the E16 overhead budget
        #: gates on: on sub-second workloads an end-to-end A/B wall
        #: delta drowns in scheduler jitter, while this accumulator is
        #: deterministic.
        self.overhead_s = 0.0

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: Path,
        argv: Optional[List[str]] = None,
        workspace: str = "",
        faults: Optional[str] = None,
        workers: Optional[int] = None,
        deadline: Optional[float] = None,
    ) -> "CheckpointManager":
        """Start a fresh checkpointed run, clearing any stale journal."""
        t0 = time.perf_counter()
        directory = Path(directory)
        if directory.exists():
            shutil.rmtree(directory)
        directory.mkdir(parents=True)
        manifest = {
            "format": MANIFEST_VERSION,
            "status": "running",
            "created": time.time(),
            "argv": list(argv or []),
            "workspace": workspace,
            "faults": faults,
            "workers": workers,
            "deadline": deadline,
            "waves": 0,
            "fired": [],
            "reason": None,
        }
        manager = cls(directory, manifest)
        manager._write_manifest()
        manager.overhead_s += time.perf_counter() - t0
        return manager

    @classmethod
    def load(cls, directory: Path) -> "CheckpointManager":
        """Open an existing journal for resumption.

        Raises :class:`CheckpointNotFoundError` when there is nothing to
        resume and :class:`CheckpointCorruptError` when the manifest is
        unreadable — never a bare JSON/pickle error.
        """
        directory = Path(directory)
        manifest_path = directory / MANIFEST_NAME
        if not manifest_path.exists():
            raise CheckpointNotFoundError(
                f"no resumable run at {directory} (no {MANIFEST_NAME})"
            )
        try:
            manifest = json.loads(manifest_path.read_text())
        except (OSError, ValueError) as exc:
            raise CheckpointCorruptError(
                f"checkpoint manifest {manifest_path} is corrupt "
                f"({type(exc).__name__}: {exc})"
            ) from exc
        if not isinstance(manifest, dict) or "status" not in manifest:
            raise CheckpointCorruptError(
                f"checkpoint manifest {manifest_path} is not a run manifest"
            )
        if int(manifest.get("format", 0)) > MANIFEST_VERSION:
            raise CheckpointCorruptError(
                f"checkpoint manifest {manifest_path} uses format "
                f"v{manifest.get('format')}; this release reads up to "
                f"v{MANIFEST_VERSION}"
            )
        return cls(directory, manifest)

    # -- manifest -------------------------------------------------------
    def _write_manifest(self) -> None:
        # sync=False: the crash model is process death, which keeps the
        # page cache, and the rename is atomic either way — a reader
        # sees the previous manifest or this one, never a torn file.
        atomic_write(
            self.directory / MANIFEST_NAME,
            json.dumps(self.manifest, indent=2, sort_keys=True).encode(),
            sync=False,
        )

    @property
    def status(self) -> str:
        return str(self.manifest.get("status", "unknown"))

    @property
    def argv(self) -> List[str]:
        return list(self.manifest.get("argv") or [])

    @property
    def fired(self) -> set:
        """Driver faults that already fired, as ``(wave, spec)`` pairs."""
        return {tuple(entry) for entry in self.manifest.get("fired") or []}

    def mark_fired(self, key: Tuple[int, int]) -> None:
        """Persist that driver fault ``key`` fired — before it takes
        effect, so a resumed run never re-fires the crash that killed it."""
        fired = self.fired
        if key in fired:
            return
        fired.add(key)
        self.manifest["fired"] = sorted(list(k) for k in fired)
        self._write_manifest()

    def interrupt(self, reason: str) -> None:
        """Mark the run interrupted-but-resumable."""
        self.manifest["status"] = "interrupted"
        self.manifest["reason"] = reason
        self._write_manifest()

    # -- the wave journal -----------------------------------------------
    def _scan_waves(self) -> Dict[int, Path]:
        waves: Dict[int, Path] = {}
        if not self.directory.is_dir():
            return waves
        for path in self.directory.glob("wave-*.ckpt"):
            try:
                index = int(path.stem.split("-", 1)[1])
            except (IndexError, ValueError):
                continue
            waves[index] = path
        return waves

    @property
    def waves_available(self) -> int:
        """Journaled waves on disk when this manager was opened."""
        return len(self._available)

    def replay(self, index: int, fingerprint: str) -> Optional[Any]:
        """The journaled result of wave ``index``, or ``None`` to execute.

        A torn or corrupt wave file is a cache miss (recorded in
        :attr:`corrupt_skipped`); a *readable* checkpoint whose
        fingerprint disagrees with the wave about to run means the
        journal belongs to a different command or workspace state and
        raises :class:`CheckpointCorruptError`.
        """
        path = self._available.get(index)
        if path is None:
            return None
        t0 = time.perf_counter()
        try:
            record = read_checkpoint_file(path)
        except CheckpointCorruptError as exc:
            self.corrupt_skipped.append((index, str(exc)))
            self._available.pop(index, None)
            self.overhead_s += time.perf_counter() - t0
            return None
        if (
            not isinstance(record, dict)
            or record.get("fingerprint") != fingerprint
        ):
            raise CheckpointCorruptError(
                f"checkpoint {path} is stale: it journals wave "
                f"{record.get('fingerprint')!r} but the resumed run is at "
                f"{fingerprint!r} — the workspace or command changed; "
                "delete the checkpoint directory to start over"
            )
        self.waves_replayed += 1
        self.overhead_s += time.perf_counter() - t0
        return record["payload"]

    def commit(self, index: int, fingerprint: str, payload: Any) -> bool:
        """Journal one executed wave; idempotent, atomic.

        Returns ``False`` (and journals nothing) when the payload cannot
        be pickled — a checkpoint must never fail the job it protects.
        """
        t0 = time.perf_counter()
        path = self.directory / _wave_file_name(index)
        try:
            write_checkpoint_file(
                path, {"fingerprint": fingerprint, "payload": payload}
            )
        except (pickle.PicklingError, AttributeError, TypeError, OSError):
            self.overhead_s += time.perf_counter() - t0
            return False
        self._available[index] = path
        self.waves_committed += 1
        self.overhead_s += time.perf_counter() - t0
        # In-memory only: recovery discovers waves by scanning the
        # directory, so the manifest's count is display metadata — it
        # rides along with the next durable write (``interrupt``, or
        # ``mark_fired`` before an injected crash) instead of paying an
        # fsync'd rewrite on every fault-free wave boundary.
        if index + 1 > int(self.manifest.get("waves") or 0):
            self.manifest["waves"] = index + 1
        return True

    def tear_wave_file(self, index: int, fraction: float) -> None:
        """Shred wave ``index``'s file to ``fraction`` of its bytes.

        Chaos tooling for ``crashdriver:<wave>:<fraction>``: simulates a
        storage-level tear of the final checkpoint (the case atomic
        rename cannot protect against, e.g. power loss after the rename
        but mid-flush on a non-journaling disk), so resume tests cover
        the corrupt-checkpoint path.
        """
        path = self._available.get(index)
        if path is None or not path.exists():
            return
        raw = path.read_bytes()
        keep = max(0, min(len(raw), int(len(raw) * float(fraction))))
        path.write_bytes(raw[:keep])

    # -- lifecycle ------------------------------------------------------
    def finish(self) -> None:
        """The command completed: garbage-collect the journal."""
        t0 = time.perf_counter()
        self.manifest["status"] = "complete"
        if self.directory.is_dir():
            shutil.rmtree(self.directory, ignore_errors=True)
        self._available.clear()
        self.overhead_s += time.perf_counter() - t0

    def recovery_summary(self) -> Dict[str, Any]:
        """What a resume did, for the JobHistory recovery section."""
        return {
            "directory": str(self.directory),
            "command": " ".join(self.argv),
            "interrupted_reason": self.manifest.get("reason"),
            "waves_replayed": self.waves_replayed,
            "waves_executed": self.waves_committed,
            "corrupt_checkpoints_discarded": len(self.corrupt_skipped),
        }


# ----------------------------------------------------------------------
# Hygiene: listing and fsck
# ----------------------------------------------------------------------
def list_runs(root: Path) -> List[Dict[str, Any]]:
    """Resumable (and corrupt) checkpointed runs under ``root``.

    Scans for ``*.ckpt/MANIFEST.json`` directly below ``root``; corrupt
    manifests are reported with status ``corrupt`` rather than raised,
    so one rotten journal cannot hide the healthy ones.
    """
    root = Path(root)
    runs: List[Dict[str, Any]] = []
    if not root.is_dir():
        return runs
    for directory in sorted(root.glob("*" + CHECKPOINT_DIR_SUFFIX)):
        if not (directory / MANIFEST_NAME).exists():
            continue
        try:
            manager = CheckpointManager.load(directory)
        except CheckpointCorruptError as exc:
            runs.append(
                {
                    "directory": str(directory),
                    "status": "corrupt",
                    "command": "",
                    "waves": 0,
                    "reason": str(exc),
                }
            )
            continue
        except CheckpointNotFoundError:
            continue
        runs.append(
            {
                "directory": str(directory),
                "status": manager.status,
                "command": " ".join(manager.argv),
                "waves": manager.waves_available,
                "reason": manager.manifest.get("reason"),
                "workspace": manager.manifest.get("workspace"),
            }
        )
    return runs


def fsck_checkpoints(
    directory: Path, repair: bool = False
) -> List[Dict[str, Any]]:
    """Validate one checkpoint directory with the fsck discipline.

    Returns one issue dict per problem (shape mirrors
    :class:`~repro.mapreduce.storage.FsckIssue`): a corrupt manifest,
    or wave files failing their framing/CRC. With ``repair=True``
    corrupt wave files are deleted — resume treats a missing wave as a
    cache miss and simply re-executes it, so deletion *is* the repair.
    """
    directory = Path(directory)
    issues: List[Dict[str, Any]] = []
    if not directory.is_dir():
        return issues
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists():
        try:
            CheckpointManager.load(directory)
        except CheckpointError as exc:
            issues.append(
                {
                    "file": str(manifest_path),
                    "code": "checkpoint-manifest-corrupt",
                    "message": str(exc),
                    "repaired": False,
                }
            )
    else:
        issues.append(
            {
                "file": str(directory),
                "code": "checkpoint-manifest-missing",
                "message": "checkpoint directory has no manifest",
                "repaired": False,
            }
        )
    for path in sorted(directory.glob("wave-*.ckpt")):
        try:
            read_checkpoint_file(path)
        except CheckpointCorruptError as exc:
            repaired = False
            if repair:
                try:
                    os.unlink(path)
                    repaired = True
                except OSError:
                    pass
            issues.append(
                {
                    "file": str(path),
                    "code": "checkpoint-corrupt",
                    "message": str(exc)
                    + ("; deleted (wave will re-execute)" if repaired else ""),
                    "repaired": repaired,
                }
            )
    return issues
