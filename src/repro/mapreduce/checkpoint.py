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
        wave-log.ckpt        # every committed wave, one frame each

The wave log is append-only. The manager opens it once per run with
``O_APPEND`` and commits a wave with a single ``write`` of one frame:
no per-wave file, no temp file, no rename, no fsync. A frame is the
workspace framing (magic + version + CRC-32 + length header,
:data:`repro.core.workspace.FRAME_HEADER`) around two pickles back to
back: the wave's ``(index, fingerprint)`` key, then its ``(results,
attempts, summary)`` triple, whose columnar payloads and plain arrays
pickle through the block codec (:func:`repro.mapreduce.columnar.pickled`,
buffers in band at protocol 5) as a workspace's do. Opening a journal
scans the log once and keeps each wave's offset, decoding only the keys;
replay decodes one frame at its offset. The last frame for an index
wins, so re-commits stay idempotent. The manifest records the command, workspace,
fault-plan spec and the *fault-plan position* (which driver faults
already fired), so a resumed run does not re-fire the crash that
killed it.

Corruption policy — two distinct failure modes, two behaviours:

* a corrupt **wave frame** is a cache miss: the wave re-executes and
  its new frame supersedes the bad one. A frame whose header and length
  are intact but whose CRC (or version) fails costs only its own wave —
  the scan steps over it. Anything unparseable, such as the torn tail
  the ``crashdriver:<wave>:<fraction>`` chaos fault leaves by cutting
  the log inside its last frame, ends the scan; the next append cuts it
  off first. Recovery must never be blocked by the very crash it
  recovers from.
* a corrupt **manifest**, or a frame whose fingerprint does not match
  the wave about to run (the workspace changed underneath the journal),
  raises the typed :class:`CheckpointCorruptError` — never a bare
  ``UnpicklingError``. ``repro fsck`` surfaces both via
  :func:`fsck_checkpoints`, whose repair drops bad frames and cuts a
  torn tail.

Cooperative cancellation rides the same layer: a
:class:`CancellationToken` (armed by ``--deadline`` and the CLI's
SIGINT/SIGTERM handlers) is polled at task, wave and round boundaries —
:func:`check_active` is the driver-side poll the executors call between
tasks — and stopping raises :class:`RunCancelled` /
:class:`DeadlineExceeded` out of the runner, past the pool
cleanup path, leaving a resumable journal behind.
"""

from __future__ import annotations

import copyreg
import gc
import io
import json
import os
import pickle
import shutil
import time
import zlib
from pathlib import Path
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.core.workspace import FRAME_HEADER as _HEADER
from repro.core.workspace import atomic_write
from repro.mapreduce.columnar import pickled
from repro.mapreduce.types import TaskResult

#: Wave-frame magic; deliberately the same length as the workspace magic.
MAGIC = b"REPROCKP"
#: v6 appends every wave of a run to one log, a frame per wave; each
#: frame holds a key pickle and a :class:`TaskResult` triple whose bulk
#: record lists (Feature lists too) are packed as columnar payloads, and
#: whose payloads and plain arrays are written by the block codec
#: (:mod:`repro.mapreduce.columnar`). v6 differs from v5 in what an index
#: build's sample task returns (centre arrays, no ``Point`` list). A frame
#: of any other version is a corrupt wave (a cache miss that re-executes),
#: and the per-wave files of v3 and before are ignored.
FORMAT_VERSION = 6

#: Manifest schema version.
MANIFEST_VERSION = 1
MANIFEST_NAME = "MANIFEST.json"
#: The run's append-only wave log, next to the manifest.
LOG_NAME = "wave-log.ckpt"

#: Bytes in front of each frame's payload: magic plus header.
_FRAME = len(MAGIC) + _HEADER.size

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
# The wave log: frames
# ----------------------------------------------------------------------
#: Below this length a record list is pickled as-is: the columnar
#: transpose has per-call overhead that only pays off in bulk.
_COLUMNAR_MIN = 64


def _thaw_pairs(left: list, right: list) -> list:
    return list(zip(left, right))


class _Packed:
    """A stand-in that unpickles *as* the value it replaced.

    ``_pack`` swaps large homogeneous record lists for one of these;
    pickle serialises the list's columnar payload through the block codec
    instead of 50k record objects, and the load side rebuilds the
    original list (``ColumnarPayload.materialize``) with no
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
        return _Packed((ColumnarPayload.materialize, (payload,)))
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


def _plain_array(array: np.ndarray) -> tuple:
    """Pickle a plain numeric array through the block codec, in band.

    Emitted pairs carry row-number and coordinate arrays by the dozen,
    and NumPy's own reduce costs about twice as much per small array.
    Other dtypes and layouts take NumPy's path. A writable array's
    buffer unpickles as a ``bytearray`` (a read-only one as ``bytes``),
    so the array comes back writable or not, as from NumPy's.
    """
    if array.dtype.kind not in "biuf" or not array.flags.c_contiguous:
        return array.__reduce_ex__(pickle.HIGHEST_PROTOCOL)
    return pickled(array, pickle.HIGHEST_PROTOCOL)


#: The wave pickler's reducers: the standard table plus plain arrays.
_DISPATCH = {**copyreg.dispatch_table, np.ndarray: _plain_array}


def _dumps(obj: Any) -> bytes:
    stream = io.BytesIO()
    pickler = pickle.Pickler(stream, pickle.HIGHEST_PROTOCOL)
    pickler.dispatch_table = _DISPATCH
    pickler.dump(obj)
    return stream.getvalue()


def _pack_records(records: Any) -> Any:
    if type(records) is list and len(records) >= _COLUMNAR_MIN:
        return _pack_list(records)
    return records


def _pack(payload: Any) -> Any:
    """A wave triple with its task results' record lists packed.

    Only a :class:`TaskResult`'s ``emitted`` pairs and ``output``
    records are bulk; each goes through :func:`_pack_list` once, and no
    element is walked. Attempts, the fault summary and any other payload
    pickle as they are.
    """
    if type(payload) is not tuple or not payload or type(payload[0]) is not list:
        return payload
    results = [
        TaskResult(r.records_in, r.counters, _pack_records(r.emitted),
                   _pack_records(r.output), r.seconds, r.events, r.phases)
        if type(r) is TaskResult else r
        for r in payload[0]
    ]
    return (results, *payload[1:])


def write_checkpoint_file(
    fd: int, index: int, fingerprint: str, payload: Any
) -> int:
    """Append wave ``index`` to the open wave log ``fd`` as one frame.

    The frame's payload is two pickles back to back — the small
    ``(index, fingerprint)`` key a log scan decodes, then the wave — and
    its CRC covers both. Returns the frame's length in bytes. Three
    hot-path economies, all invisible to the read side:

    * Bulk Point/Rectangle lists (bare or as Features) among the task
      results' emitted pairs and outputs are transposed into flat
      float64 columns before pickling (``_pack``), and the columns and
      plain arrays are written as raw buffers by the block codec — ~5x
      less serialisation time and ~35% fewer bytes than object
      pickling, and ``pickle.loads`` rebuilds the original lists
      unaided.
    * One ``write`` to a descriptor the manager keeps open with
      ``O_APPEND``: no file to create, no temp file, no rename, no
      fsync. The CRC framing turns a torn tail into a cache miss, so
      durability against power loss buys nothing the read path doesn't
      already absorb.
    * Garbage collection pauses while the frame is built. Packing a
      megabyte wave allocates enough temporaries to trip a full
      collection right here, charging a scan of the *application's*
      heap to the journal; the temporaries all die before re-enable, so
      deferring costs the eventual collection nothing.

    Together these keep wave commits inside the <5% fault-free overhead
    budget (E16).
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        key = pickle.dumps((index, fingerprint), protocol=pickle.HIGHEST_PROTOCOL)
        body = _dumps(_pack(payload))
        header = MAGIC + _HEADER.pack(
            FORMAT_VERSION, zlib.crc32(body, zlib.crc32(key)),
            len(key) + len(body),
        )
        frame = b"".join((header, key, body))
    finally:
        if was_enabled:
            gc.enable()
    view = memoryview(frame)
    while view:  # a regular file takes it whole; a short write resumes
        view = view[os.write(fd, view):]
    return len(frame)


def _read_frame(fh, path: Path, offset: int) -> Tuple[int, int, bytes]:
    """``(version, crc, payload)`` of the frame ``fh`` is positioned at.

    Raises :class:`CheckpointCorruptError` when the bytes at ``offset``
    are not a whole frame — no magic, or cut short — which is where a
    log scan stops.
    """
    head = fh.read(_FRAME)
    magic = head[:len(MAGIC)]
    if magic != MAGIC[:len(magic)]:
        raise CheckpointCorruptError(
            f"wave log {path} has no frame magic ({MAGIC!r}) at byte "
            f"{offset}: bad magic — the log is torn there"
        )
    if len(head) < _FRAME:
        raise CheckpointCorruptError(
            f"wave log {path} is truncated at byte {offset} (incomplete "
            "frame header)"
        )
    version, crc, length = _HEADER.unpack_from(head, len(MAGIC))
    payload = fh.read(length)
    if len(payload) != length:
        raise CheckpointCorruptError(
            f"wave log {path} is truncated at byte {offset}: the frame "
            f"header promises {length} payload bytes, the log has "
            f"{len(payload)}"
        )
    return version, crc, payload


def _frame_fault(path: Path, offset: int, version: int, crc: int,
                 payload: bytes) -> Optional[str]:
    """Why a whole frame cannot be used, or None when it can."""
    if zlib.crc32(payload) != crc:
        return (f"wave log {path}: the frame at byte {offset} failed its "
                "checksum — the frame is corrupt")
    if version != FORMAT_VERSION:
        return (f"wave log {path}: the frame at byte {offset} uses format "
                f"v{version}; this release reads v{FORMAT_VERSION}")
    return None


def read_checkpoint_file(path: Path, offset: int = 0) -> Dict[str, Any]:
    """Decode the frame at ``offset`` of a wave log.

    Returns ``{"index", "fingerprint", "payload"}`` after checking the
    frame's magic, length, CRC and version. Every failure mode raises
    :class:`CheckpointCorruptError` with the cause spelled out — callers
    that *tolerate* corruption (the replay path) catch that one type.
    """
    try:
        with open(path, "rb") as fh:
            fh.seek(offset)
            version, crc, payload = _read_frame(fh, path, offset)
    except OSError as exc:
        raise CheckpointCorruptError(
            f"cannot read wave log {path}: {exc}"
        ) from exc
    fault = _frame_fault(path, offset, version, crc, payload)
    if fault is not None:
        raise CheckpointCorruptError(fault)
    try:
        stream = io.BytesIO(payload)
        index, fingerprint = pickle.load(stream)
        wave = pickle.load(stream)
    except Exception as exc:
        raise CheckpointCorruptError(
            f"wave log {path}: the frame at byte {offset} passed its "
            f"checksum but failed to decode ({type(exc).__name__}: {exc})"
        ) from exc
    return {"index": index, "fingerprint": fingerprint, "payload": wave}


class LogScan(NamedTuple):
    """One pass over a wave log (:func:`scan_log`)."""

    #: ``(offset, length, index, fingerprint)`` per usable frame, in log
    #: order; a re-committed index appears once per commit.
    frames: List[Tuple[int, int, int, str]]
    #: ``(offset, length, why)`` per whole frame that failed its CRC or
    #: version, or whose key did not decode.
    bad: List[Tuple[int, int, str]]
    #: Byte offset just past the last whole frame.
    end: int
    #: Why the bytes from ``end`` on are not a frame; None at a clean end.
    torn: Optional[str]


def scan_log(path: Path) -> LogScan:
    """Walk a wave log frame by frame, decoding only the keys.

    A missing log is an empty one. A whole frame that fails is stepped
    over — its length field is intact, so the next frame is found — and
    anything unparseable ends the scan.
    """
    frames: List[Tuple[int, int, int, str]] = []
    bad: List[Tuple[int, int, str]] = []
    offset, torn = 0, None
    try:
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            while offset < size:
                try:
                    version, crc, payload = _read_frame(fh, path, offset)
                except CheckpointCorruptError as exc:
                    torn = str(exc)
                    break
                length = _FRAME + len(payload)
                fault = _frame_fault(path, offset, version, crc, payload)
                if fault is None:
                    try:
                        index, fingerprint = pickle.loads(payload)
                    except Exception as exc:
                        fault = (f"wave log {path}: the key of the frame "
                                 f"at byte {offset} failed to decode "
                                 f"({type(exc).__name__}: {exc})")
                if fault is None:
                    frames.append((offset, length, index, fingerprint))
                else:
                    bad.append((offset, length, fault))
                offset += length
    except FileNotFoundError:
        pass
    except OSError as exc:
        raise CheckpointCorruptError(
            f"cannot read wave log {path}: {exc}"
        ) from exc
    return LogScan(frames, bad, offset, torn)


def default_checkpoint_dir(workspace_path: Path) -> Path:
    """The conventional checkpoint directory for a workspace file."""
    workspace_path = Path(workspace_path)
    return workspace_path.with_name(
        workspace_path.name + CHECKPOINT_DIR_SUFFIX
    )


def _read_manifest(directory: Path) -> Dict[str, Any]:
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
    return manifest


# ----------------------------------------------------------------------
# The manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """One checkpointed run: its directory, manifest and wave log.

    Create one with :meth:`create` (fresh run) or :meth:`load` (resume),
    then hand it to ``JobRunner.set_checkpoint``. The runner calls
    :meth:`replay` at each wave boundary — a hit short-circuits the wave
    — and :meth:`commit` after each executed wave. :meth:`finish`
    garbage-collects the directory once the command completed; it,
    :meth:`interrupt` and :meth:`close` release the log's descriptor.
    """

    def __init__(self, directory: Path, manifest: Dict[str, Any]):
        self.directory = Path(directory)
        self.manifest = manifest
        self.log_path = self.directory / LOG_NAME
        scan = scan_log(self.log_path)
        #: Wave index -> ``(offset, length, fingerprint)`` of its last
        #: usable frame in the log.
        self._frames: Dict[int, Tuple[int, int, str]] = {
            index: (offset, length, fingerprint)
            for offset, length, index, fingerprint in scan.frames
        }
        #: Why each frame the scan could not use was skipped, oldest
        #: first. A bad frame cannot name its wave (the index sits in the
        #: payload it failed to check), and waves commit in order, so the
        #: next wave that misses is the one such a frame held.
        self._unclaimed: List[str] = [why for _, _, why in scan.bad]
        if scan.torn is not None:
            self._unclaimed.append(scan.torn)
        #: Bytes of whole frames: the next frame's offset.
        self._end = scan.end
        #: The log's ``O_APPEND`` descriptor, opened by the first commit.
        self._fd: Optional[int] = None
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
        return cls(directory, _read_manifest(directory))

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
        """Mark the run interrupted-but-resumable; closes the log."""
        self.close()
        self.manifest["status"] = "interrupted"
        self.manifest["reason"] = reason
        self._write_manifest()

    # -- the wave log ---------------------------------------------------
    def _log_fd(self) -> int:
        if self._fd is None:
            fd = os.open(self.log_path,
                         os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            try:
                # A torn tail would hide every frame appended after it.
                if os.fstat(fd).st_size > self._end:
                    os.ftruncate(fd, self._end)
            except BaseException:
                os.close(fd)
                raise
            self._fd = fd
        return self._fd

    def close(self) -> None:
        """Release the log's descriptor; a later commit reopens it."""
        if self._fd is not None:
            fd, self._fd = self._fd, None
            os.close(fd)

    @property
    def waves_available(self) -> int:
        """Waves with a usable frame in the log."""
        return len(self._frames)

    def replay(self, index: int, fingerprint: str) -> Optional[Any]:
        """The journaled result of wave ``index``, or ``None`` to execute.

        A corrupt frame is a cache miss (recorded in
        :attr:`corrupt_skipped`); a *readable* frame whose fingerprint
        disagrees with the wave about to run means the journal belongs
        to a different command or workspace state and raises
        :class:`CheckpointCorruptError`.
        """
        entry = self._frames.get(index)
        if entry is None:
            if self._unclaimed:
                self.corrupt_skipped.append((index, self._unclaimed.pop(0)))
            return None
        offset, _, journaled = entry
        if journaled != fingerprint:
            raise CheckpointCorruptError(
                f"checkpoint {self.log_path} is stale: it journals wave "
                f"{journaled!r} but the resumed run is at {fingerprint!r} "
                "— the workspace or command changed; delete the checkpoint "
                "directory to start over"
            )
        t0 = time.perf_counter()
        try:
            record = read_checkpoint_file(self.log_path, offset)
        except CheckpointCorruptError as exc:
            self.corrupt_skipped.append((index, str(exc)))
            self._frames.pop(index, None)
            self.overhead_s += time.perf_counter() - t0
            return None
        self.waves_replayed += 1
        self.overhead_s += time.perf_counter() - t0
        return record["payload"]

    def commit(self, index: int, fingerprint: str, payload: Any) -> bool:
        """Append one executed wave to the log; a re-commit supersedes.

        Returns ``False`` (and journals nothing) when the payload cannot
        be pickled or the log cannot be written — a checkpoint must
        never fail the job it protects.
        """
        t0 = time.perf_counter()
        try:
            length = write_checkpoint_file(
                self._log_fd(), index, fingerprint, payload
            )
        except (pickle.PicklingError, AttributeError, TypeError, OSError):
            if self._fd is not None:
                try:  # drop a partly written frame
                    os.ftruncate(self._fd, self._end)
                except OSError:
                    pass
            self.overhead_s += time.perf_counter() - t0
            return False
        self._frames[index] = (self._end, length, fingerprint)
        self._end += length
        self.waves_committed += 1
        self.overhead_s += time.perf_counter() - t0
        # In-memory only: recovery discovers waves by scanning the log,
        # so the manifest's count is display metadata — it rides along
        # with the next manifest write (``interrupt``, or ``mark_fired``
        # before an injected crash) instead of costing a rewrite on
        # every fault-free wave boundary.
        if index + 1 > int(self.manifest.get("waves") or 0):
            self.manifest["waves"] = index + 1
        return True

    def tear_wave_file(self, index: int, fraction: float) -> None:
        """Cut the log inside wave ``index``'s frame, keeping ``fraction``
        of the frame's bytes.

        Chaos tooling for ``crashdriver:<wave>:<fraction>``, which tears
        the wave it just committed — the last frame — so the log ends in
        a torn tail: the storage-level tear that appending cannot rule
        out (e.g. power loss mid-flush on a non-journaling disk), so
        resume tests cover the corrupt-checkpoint path. Frames after the
        cut, if any, go with it.
        """
        entry = self._frames.get(index)
        if entry is None:
            return
        offset, length, _ = entry
        cut = offset + max(0, min(length, int(length * float(fraction))))
        os.truncate(self.log_path, cut)
        self._frames = {
            i: e for i, e in self._frames.items() if e[0] + e[1] <= cut
        }
        self._end = cut

    # -- lifecycle ------------------------------------------------------
    def finish(self) -> None:
        """The command completed: garbage-collect the journal."""
        t0 = time.perf_counter()
        self.close()
        self.manifest["status"] = "complete"
        if self.directory.is_dir():
            shutil.rmtree(self.directory, ignore_errors=True)
        self._frames.clear()
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
    :class:`~repro.mapreduce.storage.FsckIssue`): a corrupt manifest, a
    wave frame failing its CRC or version, or a torn tail ("truncated").
    With ``repair=True`` the log is cut after its last whole frame, or —
    when whole frames failed — rewritten without them (atomically).
    Resume treats a missing wave as a cache miss and simply re-executes
    it, so dropping the bytes *is* the repair.
    """
    directory = Path(directory)
    issues: List[Dict[str, Any]] = []
    if not directory.is_dir():
        return issues
    manifest_path = directory / MANIFEST_NAME
    if manifest_path.exists():
        try:
            _read_manifest(directory)
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
    log = directory / LOG_NAME
    try:
        scan = scan_log(log)
    except CheckpointCorruptError as exc:
        scan = LogScan([], [], 0, str(exc))
    faults = [why for _, _, why in scan.bad]
    if scan.torn is not None:
        faults.append(scan.torn)
    repaired = False
    if repair and faults:
        try:
            if scan.bad:
                raw = memoryview(log.read_bytes())
                atomic_write(log, *(raw[o:o + n] for o, n, _, _ in scan.frames),
                             sync=False)
            else:
                os.truncate(log, scan.end)
            repaired = True
        except OSError:
            pass
    for why in faults:
        issues.append(
            {
                "file": str(log),
                "code": "checkpoint-corrupt",
                "message": why
                + ("; dropped from the log (wave will re-execute)"
                   if repaired else ""),
                "repaired": repaired,
            }
        )
    return issues
