"""Pluggable task executors: how a wave of tasks is physically run.

The :class:`JobRunner` executes a job as two *waves* — all map tasks, then
all reduce tasks. An :class:`Executor` decides how the tasks of one wave
are dispatched:

* :class:`SerialExecutor` runs every task in the driver process, one after
  another. It is the default because it is perfectly reproducible, imposes
  zero dispatch overhead, and supports map/reduce functions that close over
  driver-side state (several operations and many tests rely on that).
* :class:`ParallelExecutor` fans the wave out over a pool of worker
  *processes* (``concurrent.futures.ProcessPoolExecutor``), the real-world
  counterpart of the cluster the :class:`~repro.mapreduce.cluster.
  ClusterModel` simulates. Tasks are shipped in chunks so the job object is
  pickled once per chunk rather than once per task, and results come back
  in submission order so job output and counters are identical to a serial
  run.

Jobs whose functions cannot be pickled (closures over local state, lambdas)
transparently fall back to in-process execution; the ``fallbacks`` counter
on the executor records how often that happened.

A wave reaches the pool only when the pool has measured faster for that
*kind* of wave (its map or reduce function, and which wave it is): the
:class:`DispatchGate` learns seconds per record in each mode from earlier
waves and compares a wave's predicted serial time with the pool's
measured round trip, or its start when it is down. Small waves
therefore stay in the driver, where they cost no pickling and no
process wake-ups.

The parallel backend also degrades gracefully when workers die: a broken
pool (worker process killed, pipe torn down) is rebuilt once per wave and
only the chunks that had not completed are re-dispatched; if the rebuilt
pool breaks too, the remaining chunks run in-process. Repeated breakage
across waves blacklists the pool entirely. The ``pool_rebuilds`` counter
records every rebuild.

The worker count is resolved from, in decreasing priority: the
``JobRunner(workers=...)`` argument, the ``REPRO_WORKERS`` environment
variable, and finally 1 (serial).
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
import signal
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from multiprocessing.reduction import ForkingPickler
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.mapreduce.checkpoint import check_active

#: Environment variable consulted when no explicit worker count is given.
WORKERS_ENV_VAR = "REPRO_WORKERS"

#: Target number of chunks per worker: more chunks -> better load balance,
#: fewer chunks -> less pickling. 4 is the conventional compromise.
CHUNKS_PER_WORKER = 4

#: Pool rebuilds allowed within a single wave before the remainder of the
#: wave runs in-process.
MAX_REBUILDS_PER_WAVE = 1

#: Cumulative pool rebuilds after which the pool is blacklisted and every
#: later wave runs in-process (the environment, not the wave, is broken).
BLACKLIST_REBUILDS = 5

#: Seconds the driver waits for a chunk's result before it checks that
#: the pool still has a live worker to deliver it.
RESULT_POLL_S = 1.0

#: Errors that *can* mean "result or submission failed to pickle". The
#: pool survives these; only the offending chunks re-run in-process.
#: AttributeError / TypeError are raised by the pickle machinery for
#: unpicklable payloads but equally by ordinary user code, so membership
#: here is necessary, not sufficient: result-loop failures are vetted by
#: :func:`_is_serialization_error` before being treated as pickle
#: trouble.
_PICKLE_ERRORS = (pickle.PicklingError, AttributeError, TypeError)

#: Errors meaning "the pool itself is dead" (worker process killed, result
#: pipe torn down). BrokenExecutor covers BrokenProcessPool.
_BROKEN_POOL_ERRORS = (BrokenExecutor, BrokenPipeError, EOFError,
                       ConnectionResetError)

#: Substrings that place an exception inside the serialization machinery
#: rather than user code: pickle itself, multiprocessing's queue feeder
#: and reducer, and the worker-side result send.
_SERIALIZATION_MARKERS = (
    "pickle", "_sendback_result", "queues.py", "reduction.py",
)


def _is_serialization_error(exc: BaseException) -> bool:
    """Did ``exc`` come from (de)serializing a payload, not from user code?

    ``PicklingError`` is unambiguous. For ``AttributeError`` / ``TypeError``
    the evidence is examined: the message (``Can't pickle ...``, ``cannot
    pickle ...``, ``Can't get attribute ...``), the chained cause — a
    worker-side serialization failure arrives as a ``RemoteTraceback``
    cause whose text names the pickle machinery — and the traceback's
    frame filenames. A genuine ``TypeError`` raised by a map function
    matches none of these and must propagate as a task failure, not
    silently re-run in-process.
    """
    if isinstance(exc, pickle.PicklingError):
        return True
    if not isinstance(exc, (AttributeError, TypeError)):
        return False
    texts = [str(exc)]
    cause = exc.__cause__ or exc.__context__
    if cause is not None:
        texts.append(str(cause))
    for text in texts:
        lowered = text.lower()
        if "pickle" in lowered or "can't get attribute" in lowered:
            return True
    tb = exc.__traceback__
    while tb is not None:
        filename = tb.tb_frame.f_code.co_filename
        if any(marker in filename for marker in _SERIALIZATION_MARKERS):
            return True
        tb = tb.tb_next
    return False


def _pool_alive(pool: Any) -> bool:
    """Has ``pool`` a live worker process left to complete a future?"""
    processes = getattr(pool, "_processes", None) or {}
    return any(process.is_alive() for process in list(processes.values()))


def _result(future: Any, pool: Any) -> Any:
    """``future.result()``, waited for in ``RESULT_POLL_S`` slices.

    A future whose pool has lost every worker never completes (the pool
    may not have noticed the deaths); it raises ``BrokenExecutor``
    instead, so the wave rebuilds the pool rather than hang.
    """
    while True:
        try:
            return future.result(timeout=RESULT_POLL_S)
        except FutureTimeout:
            if future.done():  # the task itself raised a TimeoutError
                raise
            if not _pool_alive(pool):
                raise BrokenExecutor("no live worker left in the pool")


def _init_worker() -> None:
    """Pool worker start-up: ``SIGTERM`` to default, ``SIGINT`` ignored.

    A forked worker inherits the driver's handlers, and the CLI's
    cooperative one only marks a stop: a worker the pool terminates
    (``p.terminate()`` when a sibling dies) would survive it, and the
    driver would hang joining it. Workers have nothing to wind down.
    A terminal Ctrl-C reaches the whole process group, but cancellation
    is the driver's: a worker it killed would break the pool mid-wave.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def _noop(value: Any = None) -> Any:
    """A task that does nothing: what pool start-up and round trips time."""
    return value


def _worker_start_s() -> float:
    """Seconds to start and reap one process the way the pool starts one."""
    process = multiprocessing.get_context().Process(target=_noop)
    started = perf_counter()
    process.start()
    process.join()
    return perf_counter() - started


class DispatchGate:
    """Where each wave runs: in the driver unless the pool measured faster.

    A wave's *kind* is its map or reduce function's qualified name plus
    the wave (``"map"`` / ``"reduce"``); its size is its record count.
    For every kind the gate keeps the best seconds per record it has
    seen in each mode: the best, because what slows a wave down (a
    collection, a neighbour's burst, the copy-on-write faults that
    follow a fork) is noise on top of its cost, never below it. A
    ``"probe"`` rate, timed on the first chunk of the kind's first wave,
    stands in for the in-process rate until a wave has run in the
    driver. Two more measurements price the pool: ``round_trip_s``, the
    idle pool's round trip, and ``start_s``, what starting the pool cost
    last time (before any pool has run, what starting one worker
    costs).

    :meth:`decide` answers, in order:

    * ``unseen`` — no serial rate yet: run in the driver to get one;
    * ``below-round-trip`` — the predicted serial time cannot beat the
      pool's fixed cost (its round trip, or its start when it is down):
      run in the driver;
    * ``trial`` — a mode has no rate of its own yet: run there once to
      get one (the pool first; the driver only if the pool looks faster
      than the probe's estimate);
    * ``measured`` — run wherever the kind's rates predict faster, the
      pool's start counted when it is down.
    """

    def __init__(self):
        #: kind -> {mode or "probe": best seconds per record seen}.
        self.rates: Dict[Any, Dict[str, float]] = {}
        self.round_trip_s: Optional[float] = None
        self.start_s: Optional[float] = None

    def predict(self, kind: Any, mode: str, records: int) -> Optional[float]:
        """Predicted seconds for ``records`` of ``kind`` in ``mode``."""
        rate = self.rates.get(kind, {}).get(mode)
        return None if rate is None else rate * records

    def decide(self, kind: Any, records: int, pool_up: bool) -> dict:
        """The dispatch decision for one wave, with the inputs it used.

        ``pool_s`` includes the pool's start when ``pool_up`` is false.
        Once ``kind`` has a serial rate, ``start_s`` must be known
        (:class:`ParallelExecutor` measures it).
        """
        rates = self.rates.get(kind, {})
        serial_s = self.predict(
            kind, "in-process" if "in-process" in rates else "probe", records)
        pool_s = self.predict(kind, "pool", records)
        up = pool_up and self.round_trip_s is not None
        fixed = self.round_trip_s if up else self.start_s
        if pool_s is not None and not up:
            pool_s += self.start_s
        if serial_s is None:
            mode, reason = "in-process", "unseen"
        elif serial_s <= fixed:
            mode, reason = "in-process", "below-round-trip"
        elif pool_s is None:
            mode, reason = "pool", "trial"
        elif pool_s >= serial_s:
            mode, reason = "in-process", "measured"
        elif "in-process" not in rates:
            mode, reason = "in-process", "trial"
        else:
            mode, reason = "pool", "measured"
        return {"mode": mode, "reason": reason, "records": records,
                "serial_s": serial_s, "pool_s": pool_s}

    def learn(self, kind: Any, mode: str, records: int, seconds: float) -> None:
        """Fold one wave's measured seconds into the kind's rate in ``mode``."""
        rates = self.rates.setdefault(kind, {})
        rate = seconds / max(1, records)
        rates[mode] = min(rate, rates.get(mode, rate))


def resolve_workers(explicit: Optional[int] = None) -> int:
    """Resolve a worker count from ``explicit`` or ``$REPRO_WORKERS``.

    Returns at least 1; 1 means serial execution.
    """
    if explicit is not None:
        return max(1, int(explicit))
    env = os.environ.get(WORKERS_ENV_VAR, "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(
                f"{WORKERS_ENV_VAR} must be an integer, got {env!r}"
            ) from None
    return 1


def make_executor(workers: Optional[int] = None) -> "Executor":
    """An executor for ``workers`` (resolved via :func:`resolve_workers`)."""
    count = resolve_workers(workers)
    if count <= 1:
        return SerialExecutor()
    return ParallelExecutor(count)


class Executor:
    """Interface: run one wave of task chunks, preserving order."""

    #: Human-readable backend name (shows up in benchmark tables).
    name = "abstract"
    #: Worker processes this executor uses (1 for serial).
    workers = 1
    #: Broken pools thrown away and re-created (always 0 for serial).
    pool_rebuilds = 0
    #: How the most recent wave was dispatched: ``{"chunks": int,
    #: "mode": "in-process" | "pool"}``, plus, for a gated wave, the
    #: gate's reason, record count and predicted serial and pool
    #: seconds. Observability only — the trace attaches it to wave spans
    #: as *volatile* diagnostics, because dispatch mode is exactly the
    #: thing that differs between backends.
    last_dispatch: Optional[dict] = None

    def map_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> List[Any]:
        """Apply ``fn`` to every chunk and return results in chunk order."""
        raise NotImplementedError

    def close(self, wait: bool = True) -> None:
        """Release any pooled resources. Idempotent.

        ``wait=False`` must never block: it is the interpreter-teardown
        path (``__del__``), where joining worker processes can deadlock
        or stall exit.
        """


class SerialExecutor(Executor):
    """Run every chunk in the driver process (the reproducible default)."""

    name = "serial"

    def map_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> List[Any]:
        self.last_dispatch = {"chunks": len(chunks), "mode": "in-process"}
        return [fn(chunk) for chunk in chunks]


class ParallelExecutor(Executor):
    """Run chunks concurrently on a process pool.

    The pool is created lazily on first use and reused across jobs so its
    startup cost is paid once per runner, not once per wave. The executor
    pickles cleanly (the pool is dropped and re-created on demand), which
    keeps CLI workspaces — which pickle the whole :class:`SpatialHadoop`
    facade — working. Its :class:`DispatchGate` survives ``close()`` and
    pickling: what a host's pool costs is learned once.
    """

    name = "parallel"

    def __init__(self, workers: Optional[int] = None):
        self.workers = max(2, resolve_workers(workers))
        #: Number of waves that could not be parallelised (unpicklable
        #: job functions or results) and ran — fully or partly —
        #: in-process instead.
        self.fallbacks = 0
        #: Number of times a broken pool (dead worker, torn pipe) was
        #: thrown away and re-created.
        self.pool_rebuilds = 0
        #: Set once pool breakage crosses ``BLACKLIST_REBUILDS``: the
        #: environment is deemed hostile and all later waves run
        #: in-process.
        self.blacklisted = False
        self.gate = DispatchGate()
        self._pool = None

    # -- pickling support -------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    # -- pool management --------------------------------------------------
    def _ensure_pool(self):
        """The pool, started if it was down: every worker is up when it
        returns. A start is timed for the gate, and the first pool to
        run also times one idle round trip."""
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            started = perf_counter()
            pool = self._pool = ProcessPoolExecutor(
                max_workers=self.workers, initializer=_init_worker
            )
            try:
                _result(pool.submit(_noop), pool)
                self.gate.start_s = perf_counter() - started
                if self.gate.round_trip_s is None:
                    started = perf_counter()
                    _result(pool.submit(_noop), pool)
                    self.gate.round_trip_s = perf_counter() - started
            except _BROKEN_POOL_ERRORS:
                pass  # the wave's own submission finds it broken
        return self._pool

    def _discard_pool(self) -> None:
        """Drop a (possibly broken) pool without waiting on its workers."""
        pool, self._pool = self._pool, None
        if pool is not None:
            try:
                pool.shutdown(wait=False, cancel_futures=True)
            except Exception:
                pass

    def close(self, wait: bool = True) -> None:
        """Shut the pool down. Idempotent and exception-free.

        Both the cancellation/deadline path and ``__del__`` may race a
        close that already happened (runner teardown closes, then the
        CLI's cleanup closes again, then the GC finalises): the pool
        reference is detached *first*, so a second call is a no-op, and
        shutdown errors are swallowed — during interpreter teardown a
        broken pool's shutdown can raise, and a destructor must not.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        try:
            if wait:
                pool.shutdown(wait=True)
            else:
                pool.shutdown(wait=False, cancel_futures=True)
        except Exception:
            pass

    def __del__(self):  # pragma: no cover - best-effort cleanup
        # Interpreter teardown must not join worker processes: a pool
        # that is mid-shutdown (or broken) can block exit indefinitely.
        try:
            self.close(wait=False)
        except Exception:
            pass

    # -- execution --------------------------------------------------------
    def map_chunks(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> List[Any]:
        if len(chunks) <= 1 or self.blacklisted:
            # Single chunk: nothing to overlap. Blacklisted: the pool
            # keeps breaking, stop feeding it.
            return self._map_chunks_here(fn, chunks)
        if not self._can_ship(chunks[0]):
            self.fallbacks += 1
            return self._map_chunks_here(fn, chunks)
        return self._map_chunks_pooled(fn, chunks)

    def run_wave(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Any],
        kind: Any,
        records: Sequence[int],
    ) -> List[Any]:
        """:meth:`map_chunks` for one wave of ``kind``, through the gate.

        ``records`` holds each chunk's record count. An unseen kind's
        first chunk runs in the driver, timed as the kind's probe rate
        (work the wave needs anyway), and the gate places the rest: a
        wave big enough to hide the pool's start gets its trial there at
        once, so even a one-shot job can run in parallel. A wave the
        pool had to recover teaches the gate nothing.
        """
        total = len(chunks)
        decision = self._decide(kind, sum(records))
        head: List[Any] = []
        if decision["reason"] == "unseen" and total > 1:
            started = perf_counter()
            head = self._map_chunks_here(fn, chunks[:1])
            self.gate.learn(kind, "probe", records[0],
                            perf_counter() - started)
            decision = {**self._decide(kind, sum(records[1:])),
                        "probe_records": records[0]}
            chunks, records = chunks[1:], records[1:]
        run = (self.map_chunks if decision["mode"] == "pool"
               else self._map_chunks_here)
        started = perf_counter()
        results = run(fn, chunks)
        dispatch = self.last_dispatch
        if not dispatch.get("recovered"):
            self.gate.learn(kind, dispatch["mode"], sum(records),
                            perf_counter() - started
                            - dispatch.get("startup_s", 0.0))
        self.last_dispatch = {**decision, **dispatch, "chunks": total}
        return head + results

    def _decide(self, kind: Any, records: int) -> dict:
        """The gate's decision; times a worker start when it first needs
        the pool's start and none has been measured."""
        gate = self.gate
        if gate.start_s is None and kind in gate.rates:
            gate.start_s = _worker_start_s()
        return gate.decide(kind, records, self._pool is not None)

    def _map_chunks_here(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> List[Any]:
        """Run every chunk in the driver process."""
        self.last_dispatch = {
            "chunks": len(chunks),
            "mode": "in-process",
            **({"blacklisted": True} if self.blacklisted else {}),
        }
        return [fn(chunk) for chunk in chunks]

    def _map_chunks_pooled(
        self, fn: Callable[[Any], Any], chunks: Sequence[Any]
    ) -> List[Any]:
        """Pool dispatch with degraded-mode recovery.

        Chunks are submitted individually so a failure only loses *its*
        chunk: completed results are kept across a pool rebuild, chunks
        whose results cannot be pickled re-run in-process, and only the
        still-incomplete chunks are re-dispatched. A wave tolerates
        ``MAX_REBUILDS_PER_WAVE`` rebuilds before its remainder runs
        in-process.
        """
        results: List[Any] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        wave_rebuilds = 0
        recovered = False
        submit_s = startup_s = 0.0
        while pending:
            cold = self._pool is None
            started = perf_counter()
            pool = self._ensure_pool()
            if cold:
                startup_s += perf_counter() - started
            futures: List[Any] = []
            broken: List[int] = []
            unpicklable: List[int] = []
            try:
                submit_t0 = perf_counter()
                for i in pending:
                    futures.append((i, pool.submit(fn, chunks[i])))
                submit_s += perf_counter() - submit_t0
            except _BROKEN_POOL_ERRORS:
                # The pool broke before it took the whole wave (died
                # while idle, or an early chunk killed its worker): the
                # chunks not handed over are lost with it, like the ones
                # in flight.
                broken = pending[len(futures):]
            except _PICKLE_ERRORS:
                # Submission itself failed (rare: _can_ship probed only
                # the first chunk). Run the remainder in-process.
                self.fallbacks += 1
                recovered = True
                for i in pending:
                    results[i] = fn(chunks[i])
                break
            for i, future in futures:
                # Cooperative cancellation point: a deadline or signal
                # stops the driver between task results, not mid-pickle.
                # Outstanding futures are cancelled by the runner's
                # close(wait=False) on the cleanup path.
                check_active()
                try:
                    results[i] = _result(future, pool)
                except _BROKEN_POOL_ERRORS:
                    broken.append(i)
                except _PICKLE_ERRORS as exc:
                    if not _is_serialization_error(exc):
                        # A genuine user-code error that merely shares a
                        # type with pickle failures: it is the task's
                        # outcome, not a dispatch problem.
                        raise
                    unpicklable.append(i)
            if unpicklable:
                # A task's *return value* would not cross the pipe; the
                # pool survives. Re-run just those chunks in-process,
                # keeping every result the pool did deliver.
                self.fallbacks += 1
                recovered = True
                for i in unpicklable:
                    results[i] = fn(chunks[i])
            if not broken:
                break
            # A worker died mid-wave and the pool is broken. Rebuild it
            # (once per wave) and re-dispatch only the lost chunks.
            broken.sort()
            self.pool_rebuilds += 1
            wave_rebuilds += 1
            recovered = True
            self._discard_pool()
            if self.pool_rebuilds >= BLACKLIST_REBUILDS:
                self.blacklisted = True
            if wave_rebuilds > MAX_REBUILDS_PER_WAVE or self.blacklisted:
                for i in broken:
                    results[i] = fn(chunks[i])
                break
            pending = broken
        # Submission time: the driver-side cost of handing this wave to
        # the pool. Surfaced so the profiler can attribute it. Start-up:
        # what starting the pool cost this wave, kept out of its timing.
        self.last_dispatch = {
            "chunks": len(chunks),
            "mode": "pool",
            "submit_s": round(submit_s, 6),
            **({"startup_s": round(startup_s, 6)} if startup_s else {}),
            **({"recovered": True} if recovered else {}),
        }
        return results

    @staticmethod
    def _can_ship(chunk: Any) -> bool:
        """Cheap pre-flight: can this wave's payload cross a process?

        All chunks of a wave share the same job object and function
        references, so probing the first chunk catches the common failure
        (closures/lambdas as map/reduce functions) before any worker is
        involved. The probe uses the pool's own pickler, so it pickles
        the bytes the pool sends (blocks as their columns).
        """
        try:
            ForkingPickler.dumps(chunk)
            return True
        except Exception:
            return False
