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

import os
import pickle
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as FutureTimeout
from time import perf_counter
from typing import Any, Callable, List, Optional, Sequence

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


def _prepare_shipped(chunks: Sequence[Any]):
    """Shared-memory rewrite of a wave's chunks, or a transparent no-op.

    Returns ``(shipped, arena)``; the caller must ``arena.destroy()``
    once every result is in. Any failure here degrades to pickling the
    original chunks.
    """
    try:
        from repro.mapreduce import shm

        return shm.prepare_chunks(chunks)
    except Exception:
        return list(chunks), None


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
    #: "mode": "in-process" | "pool"}``. Observability only — the trace
    #: attaches it to wave spans as *volatile* diagnostics, because
    #: dispatch mode is exactly the thing that differs between backends.
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
    facade — working.
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
        self._pool = None

    # -- pickling support -------------------------------------------------
    def __getstate__(self):
        state = self.__dict__.copy()
        state["_pool"] = None
        return state

    # -- pool management --------------------------------------------------
    def _ensure_pool(self):
        if self._pool is None:
            from concurrent.futures import ProcessPoolExecutor

            self._pool = ProcessPoolExecutor(max_workers=self.workers)
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
            self.last_dispatch = {
                "chunks": len(chunks),
                "mode": "in-process",
                **({"blacklisted": True} if self.blacklisted else {}),
            }
            return [fn(chunk) for chunk in chunks]
        prepare_t0 = perf_counter()
        shipped, arena = _prepare_shipped(chunks)
        prepare_s = perf_counter() - prepare_t0
        try:
            if not self._can_ship(shipped[0]):
                self.fallbacks += 1
                self.last_dispatch = {
                    "chunks": len(chunks), "mode": "in-process"
                }
                return [fn(chunk) for chunk in chunks]
            return self._map_chunks_pooled(
                fn, chunks, shipped, arena, prepare_s
            )
        finally:
            if arena is not None:
                arena.destroy()

    def _map_chunks_pooled(
        self,
        fn: Callable[[Any], Any],
        chunks: Sequence[Any],
        shipped: Sequence[Any],
        arena,
        prepare_s: float = 0.0,
    ) -> List[Any]:
        """Pool dispatch with degraded-mode recovery.

        Chunks are submitted individually so a failure only loses *its*
        chunk: completed results are kept across a pool rebuild, chunks
        whose results cannot be pickled re-run in-process, and only the
        still-incomplete chunks are re-dispatched. A wave tolerates
        ``MAX_REBUILDS_PER_WAVE`` rebuilds before its remainder runs
        in-process.

        Workers receive ``shipped[i]`` — the shared-memory rewrite when
        an arena is active, otherwise the chunk itself — wrapped so the
        worker releases its arena views after each chunk. Every
        in-process path runs ``fn(chunks[i])`` on the originals, keeping
        degraded modes identical to the serial backend.
        """
        if arena is not None:
            from repro.mapreduce.shm import run_and_release

            submit_one = lambda pool, i: pool.submit(  # noqa: E731
                run_and_release, fn, shipped[i]
            )
        else:
            submit_one = lambda pool, i: pool.submit(  # noqa: E731
                fn, shipped[i]
            )
        results: List[Any] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        wave_rebuilds = 0
        recovered = False
        submit_s = prepare_s
        while pending:
            pool = self._ensure_pool()
            futures: List[Any] = []
            broken: List[int] = []
            unpicklable: List[int] = []
            try:
                submit_t0 = perf_counter()
                for i in pending:
                    futures.append((i, submit_one(pool, i)))
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
                # The raise unwinds through map_chunks' finally (arena
                # destroyed); outstanding futures are cancelled by the
                # runner's close(wait=False) on the cleanup path.
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
        # Chunk-preparation + submission time: the driver-side cost of
        # getting this wave onto the workers (shm packing, pickling
        # hand-off). Surfaced so the profiler can attribute it.
        self.last_dispatch = {
            "chunks": len(chunks),
            "mode": "pool",
            "submit_s": round(submit_s, 6),
            **({"recovered": True} if recovered else {}),
        }
        return results

    @staticmethod
    def _can_ship(chunk: Any) -> bool:
        """Cheap pre-flight: can this wave's payload cross a process?

        All chunks of a wave share the same job object and function
        references, so probing the first chunk catches the common failure
        (closures/lambdas as map/reduce functions) before any worker is
        involved.
        """
        try:
            pickle.dumps(chunk)
            return True
        except Exception:
            return False
