"""The long-lived multi-tenant query service.

:class:`QueryService` fronts one shared :class:`~repro.core.system.
SpatialHadoop` workspace and runs admitted requests on a deterministic
*virtual* clock — the same simulated-seconds currency the
:class:`~repro.mapreduce.cluster.ClusterModel` charges. Concurrency is
modelled, not threaded: the service owns ``max_inflight`` virtual
execution slots (defaulting to :meth:`ClusterModel.serving_slots`), each
dispatched request occupies a slot from its virtual start to
``start + cost`` where ``cost`` is the real query's simulated makespan,
and the dispatcher (:class:`~repro.serve.scheduler.FairScheduler`)
always advances the earliest-free slot. Latency percentiles, queue
waits, deadline trips and breaker transitions are therefore exact and
replay bit-identically — which is what lets the chaos suite assert
golden shed/degraded/served counts.

Request life cycle::

    submit() ── admission ──┬── queue full ──> Overloaded (shed)
                            └── enqueued
    drain()  ── WFQ pick ───┬── deadline already blown ──> deadline
                            ├── breaker open ─┬─ range/count/knn ──> degraded
                            │                 └─ else ──> error (typed)
                            ├── cache hit (versions valid) ──> served
                            └── execute ──┬── ok ──> served (+cached)
                                          ├── DeadlineExceeded ──> deadline
                                          ├── ValueError/TypeError ──> error
                                          └── failure ──> breaker++ ──>
                                              degraded fallback or error

Per-request deadlines propagate into the PR 9 cooperative-cancellation
path: the remaining budget (deadline minus virtual queue wait) is
installed as a :class:`~repro.mapreduce.checkpoint.CancellationToken`
on the runner, so a timed-out query stops at the next task boundary,
releases its slot, and ``hangdriver`` faults charge the same clock —
deadline chaos is deterministic.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Mapping, Optional

from repro.core.splitter import global_index_of
from repro.observe import explain
from repro.operations.range_query import estimated_matches
from repro.mapreduce.checkpoint import (
    CancellationToken,
    DeadlineExceeded,
    RunInterrupted,
)
from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ResultCache
from repro.serve.protocol import (
    OUTCOME_DEADLINE,
    OUTCOME_DEGRADED,
    OUTCOME_ERROR,
    OUTCOME_OVERLOADED,
    OUTCOME_SERVED,
    BadRequest,
    DatasetUnavailable,
    Overloaded,
    Request,
    Response,
    TenantQuota,
    parse_request_line,
    sanitize_tenant,
)
from repro.serve.scheduler import FairScheduler

#: Operations with a metadata-only degraded fallback (see _approximate).
DEGRADABLE_OPS = ("range", "count", "knn")

#: Latency histogram boundaries (simulated seconds).
LATENCY_BUCKETS = (0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 30.0, 60.0, 300.0)


@dataclass(frozen=True)
class ServiceConfig:
    """Service-level knobs (per-tenant limits live in TenantQuota).

    ``max_inflight`` bounds globally concurrent requests; ``None``
    derives it from the cluster via :meth:`ClusterModel.serving_slots`
    with ``tasks_per_query``. ``cache_hit_cost_s`` / ``degraded_cost_s``
    are the simulated charges of answers that run no MapReduce job —
    small but non-zero, so cached and degraded traffic still occupies
    the admission pipeline for a moment, as it would in life.
    """

    max_inflight: Optional[int] = None
    tasks_per_query: int = 4
    cache_capacity: int = 128
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 120.0
    cache_hit_cost_s: float = 0.001
    degraded_cost_s: float = 0.01
    error_cost_s: float = 0.001


class QueryService:
    """A deterministic multi-tenant front end over one workspace."""

    def __init__(
        self,
        sh: Any,
        config: Optional[ServiceConfig] = None,
        quotas: Optional[Mapping[str, TenantQuota]] = None,
        default_quota: Optional[TenantQuota] = None,
    ):
        self.sh = sh
        #: The workspace's observability layer, shared with its runner.
        self.recorder = sh.runner.recorder
        self.config = config or ServiceConfig()
        self.max_inflight = (
            self.config.max_inflight
            if self.config.max_inflight is not None
            else sh.cluster.serving_slots(self.config.tasks_per_query)
        )
        if self.max_inflight < 1:
            raise ValueError("max_inflight must be at least 1")
        self.scheduler = FairScheduler(
            quotas=quotas, default_quota=default_quota
        )
        self.cache = ResultCache(capacity=self.config.cache_capacity)
        self.breakers: Dict[str, CircuitBreaker] = {}
        self.now = 0.0
        #: Virtual free times of the execution slots.
        self._slots: List[float] = [0.0] * self.max_inflight
        heapq.heapify(self._slots)
        self._next_id = 1
        self._burst_fired: set = set()
        #: (tenant, what) -> the global and the per-tenant counter name.
        self._counter_names: Dict[tuple, tuple] = {}
        self._responses: List[Response] = []
        self._shutdown = False
        self._shutdown_requested = False
        self.recorder.log(
            "info", "serve", "service-started",
            max_inflight=self.max_inflight,
            cache_capacity=self.config.cache_capacity,
        )

    # ------------------------------------------------------------------
    # Submission / admission
    # ------------------------------------------------------------------
    def submit(
        self,
        tenant: str,
        text: str,
        deadline_s: Optional[float] = None,
        synthetic: bool = False,
    ) -> Optional[Response]:
        """Admit one request; returns a terminal Response if it was shed.

        ``None`` means the request is queued and will be answered by the
        next :meth:`drain`. A shed request gets an immediate
        ``overloaded`` response (also recorded in :meth:`responses`), so
        no submission is ever lost — every one ends in exactly one
        terminal outcome.
        """
        if self._shutdown:
            raise RuntimeError("query service is shut down")
        request = Request(
            request_id=self._next_id,
            tenant=tenant,
            text=text,
            deadline_s=deadline_s,
            arrival_s=self.now,
            synthetic=synthetic,
        )
        self._next_id += 1
        self._count(tenant, "requests")
        shed = self._admit(request)
        if shed is None and not synthetic:
            self._fire_burst(request)
        return shed

    def _admit(self, request: Request) -> Optional[Response]:
        try:
            self.scheduler.enqueue(request, self.now)
        except Overloaded as exc:
            response = Response(
                request_id=request.request_id,
                tenant=request.tenant,
                query=request.text,
                outcome=OUTCOME_OVERLOADED,
                arrival_s=request.arrival_s,
                start_s=request.arrival_s,
                finish_s=request.arrival_s,
                retry_after_s=exc.retry_after_s,
                error=str(exc),
                error_type="Overloaded",
                synthetic=request.synthetic,
            )
            self._finish(response)
            return response
        self.recorder.log(
            "debug", "serve", "request-admitted", volatile=True,
            tenant=request.tenant, request=request.request_id,
        )
        return None

    def _fire_burst(self, request: Request) -> None:
        """Apply a ``burst:<tenant>:<n>`` service fault, at most once."""
        plan = self.sh.runner.faults
        if plan is None or request.tenant in self._burst_fired:
            return
        count = plan.burst_for(request.tenant)
        if count <= 0:
            return
        self._burst_fired.add(request.tenant)
        self.recorder.log(
            "warn", "serve", "burst-injected",
            tenant=request.tenant, extra_requests=count,
        )
        for _ in range(count):
            self.submit(
                request.tenant,
                request.text,
                deadline_s=request.deadline_s,
                synthetic=True,
            )

    def query(
        self, tenant: str, text: str, deadline_s: Optional[float] = None
    ) -> Response:
        """Submit one request and run it to completion.

        Raises the typed :class:`Overloaded` when admission sheds it;
        otherwise returns the terminal response (which may still be a
        ``deadline`` or ``error`` outcome).
        """
        wanted = self._next_id
        shed = self.submit(tenant, text, deadline_s=deadline_s)
        if shed is not None:
            raise Overloaded(
                tenant,
                retry_after_s=shed.retry_after_s or 0.0,
                reason="queue full",
            )
        for response in self.drain():
            if response.request_id == wanted:
                return response
        raise RuntimeError(
            f"request {wanted} vanished from the drain loop"
        )  # pragma: no cover - no-lost-requests invariant

    # ------------------------------------------------------------------
    # Dispatch loop
    # ------------------------------------------------------------------
    def drain(self) -> List[Response]:
        """Run every queued request to completion; returns new responses."""
        completed: List[Response] = []
        while self.scheduler.has_queued():
            start = max(self.now, self._slots[0])
            tenant = self.scheduler.pick(start)
            if tenant is None:
                unblock = self.scheduler.next_event_after(start)
                if unblock is None:
                    # Cannot happen while invariants hold: a queued
                    # tenant is blocked only by inflight work or window
                    # spend, both of which schedule an unblock event.
                    raise RuntimeError(
                        "scheduler stalled with queued requests"
                    )  # pragma: no cover
                self.now = unblock
                continue
            request = tenant.queue.popleft()
            heapq.heappop(self._slots)
            self.now = start
            response, cost = self._execute(request, start)
            finish = start + cost
            heapq.heappush(self._slots, finish)
            tenant.on_dispatched(start, cost, finish)
            self.scheduler.note_completed(cost)
            response.start_s = start
            response.finish_s = finish
            response.latency_s = finish - request.arrival_s
            response.cost_s = cost
            self._finish(response)
            completed.append(response)
        self._gauges()
        self.recorder.scrape("serve-drain")
        return completed

    def process_script(self, lines: Iterable[str]) -> List[Response]:
        """Replay a request script: admit every line, then drain.

        All requests in the script arrive in one burst (same virtual
        instant), which is the adversarial case admission control
        exists for. Returns the responses created by *this* call,
        sorted by request id.
        """
        before = len(self._responses)
        for line in lines:
            try:
                record = parse_request_line(line)
            except BadRequest as exc:
                response = Response(
                    request_id=self._next_id,
                    tenant="unknown",
                    query=line.strip(),
                    outcome=OUTCOME_ERROR,
                    error=str(exc),
                    error_type="BadRequest",
                )
                self._next_id += 1
                self._finish(response)
                continue
            if record is None:
                continue
            self.submit(
                record["tenant"],
                record["query"],
                deadline_s=record.get("deadline_s"),
            )
        self.drain()
        return sorted(
            self._responses[before:], key=lambda r: r.request_id
        )

    # ------------------------------------------------------------------
    # Request execution
    # ------------------------------------------------------------------
    def _execute(self, request: Request, start: float) -> tuple:
        """Run one dispatched request; returns (response, virtual cost)."""
        cfg = self.config
        base = dict(
            request_id=request.request_id,
            tenant=request.tenant,
            query=request.text,
            arrival_s=request.arrival_s,
            synthetic=request.synthetic,
        )
        plan_faults = self.sh.runner.faults
        slow_extra = (
            plan_faults.slowdown_for(request.tenant) if plan_faults else 0.0
        )

        waited = start - request.arrival_s
        if request.deadline_s is not None and waited >= request.deadline_s:
            self.recorder.log(
                "warn", "serve", "request-deadline", tenant=request.tenant,
                request=request.request_id, waited_s=round(waited, 6),
                phase="queue",
            )
            return (
                Response(
                    outcome=OUTCOME_DEADLINE,
                    error=f"deadline of {request.deadline_s:g}s blown after "
                    f"{waited:.3f}s of queueing",
                    error_type="DeadlineExceeded",
                    **base,
                ),
                0.0,
            )

        try:
            query = explain.parse_query(request.text)
            for name in query.files:
                if not self.sh.fs.exists(name):
                    raise FileNotFoundError(f"no such file: {name!r}")
        except (explain.ExplainQueryError, FileNotFoundError) as exc:
            return self._error(exc, base, cfg.error_cost_s)

        tripped = [
            name
            for name in query.files
            if not self._breaker(name).allow(start)
        ]
        if tripped:
            return self._degrade_or_fail(query, tripped[0], base, slow_extra)

        key = query.key()
        cached = self.cache.get(key, self.sh.fs)
        if cached is not None:
            for name in query.files:
                self._breaker(name).release_probe()
            self._count(request.tenant, "cache_hits")
            cost = cfg.cache_hit_cost_s + slow_extra
            return self._served(cached, base, cost, cache_hit=True)

        remaining = (
            request.deadline_s - waited
            if request.deadline_s is not None
            else None
        )
        previous_token = self.sh.runner.cancellation
        token = None
        if remaining is not None:
            token = CancellationToken(deadline_s=remaining)
            self.sh.runner.set_cancellation(token)
        try:
            result = explain.execute_query(self.sh, query)
        except DeadlineExceeded as exc:
            # A blown deadline says nothing about the dataset: a closed
            # breaker does not count it, and a half-open probe is handed
            # back rather than left in flight for ever.
            for name in query.files:
                self._breaker(name).release_probe()
            self.recorder.log(
                "warn", "serve", "request-deadline", tenant=request.tenant,
                request=request.request_id, phase="execute",
            )
            return (
                Response(
                    outcome=OUTCOME_DEADLINE,
                    error=str(exc) or "deadline exceeded mid-query",
                    error_type="DeadlineExceeded",
                    **base,
                ),
                # The query occupied its slot right up to the deadline.
                (remaining or 0.0) + slow_extra,
            )
        except RunInterrupted:
            raise  # cancellation / driver crash outranks the service
        except Exception as exc:
            # A ValueError / TypeError is the request's own fault (a bad
            # shape, an unindexed file): answer error, spare the breaker.
            own_fault = isinstance(exc, (ValueError, TypeError))
            for name in query.files:
                if own_fault:
                    self._breaker(name).release_probe()
                elif self._breaker(name).record_failure(start):
                    self._count(request.tenant, "breaker_trips")
                    self.recorder.log(
                        "error", "serve", "breaker-open", dataset=name,
                        failures=self._breaker(name).consecutive_failures,
                        error=type(exc).__name__,
                    )
            self.recorder.log(
                "warn", "serve", "request-failed", tenant=request.tenant,
                request=request.request_id, error=type(exc).__name__,
            )
            if own_fault:
                return self._error(exc, base, cfg.error_cost_s + slow_extra)
            return self._degrade_or_fail(
                query, query.files[0], base, slow_extra, cause=exc
            )
        finally:
            if token is not None:
                self.sh.runner.set_cancellation(previous_token)

        for name in query.files:
            if self._breaker(name).record_success(start):
                self.recorder.log("info", "serve", "breaker-closed", dataset=name)
        self.cache.put(key, list(query.files), self.sh.fs, result)
        return self._served(result, base, result.makespan + slow_extra)

    def _served(
        self, result: Any, base: Dict[str, Any], cost: float,
        cache_hit: bool = False,
    ) -> tuple:
        """A ``served`` answer carrying ``result``, charged ``cost``."""
        return (
            Response(
                outcome=OUTCOME_SERVED,
                answer=self._summarize(result.answer),
                rows=explain.rows_of(result.answer),
                cache_hit=cache_hit,
                result=result,
                **base,
            ),
            cost,
        )

    def _degrade_or_fail(
        self,
        query: Any,
        dataset: str,
        base: Dict[str, Any],
        slow_extra: float,
        cause: Optional[Exception] = None,
    ) -> tuple:
        """Metadata-only approximate answer, or a typed failure."""
        if query.op in DEGRADABLE_OPS:
            estimate = self._approximate(query)
            self.recorder.log(
                "warn", "serve", "request-degraded", tenant=base["tenant"],
                request=base["request_id"], dataset=dataset,
            )
            return (
                Response(
                    outcome=OUTCOME_DEGRADED,
                    answer=estimate,
                    rows=estimate,
                    degraded=True,
                    error=str(cause) if cause else "",
                    error_type=type(cause).__name__ if cause else "",
                    **base,
                ),
                self.config.degraded_cost_s + slow_extra,
            )
        exc = cause or DatasetUnavailable(dataset, query.op)
        return self._error(exc, base, self.config.error_cost_s + slow_extra)

    @staticmethod
    def _error(exc: Exception, base: Dict[str, Any], cost: float) -> tuple:
        """A typed ``error`` answer carrying ``exc``, charged ``cost``."""
        return (
            Response(
                outcome=OUTCOME_ERROR,
                error=str(exc),
                error_type=type(exc).__name__,
                **base,
            ),
            cost,
        )

    def _approximate(self, query: Any) -> int:
        """A ``range_count``-style estimate from global-index metadata.

        Reads zero blocks — only the namenode-side partition catalogue —
        so it works while the dataset's storage is broken. Uniform
        density inside each partition (:func:`estimated_matches`): a
        window covering half a cell's MBR is charged half its records.
        """
        gindex = global_index_of(self.sh.fs, query.file)
        if gindex is None:
            # Heap file: no partition catalogue; the only metadata-known
            # bound is the record count.
            total = self.sh.fs.get(query.file).num_records
            return min(query.k, total) if query.op == "knn" else total
        if query.op == "knn":
            return min(query.k, gindex.total_records)
        return estimated_matches(gindex.overlapping(query.window), query.window)

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------
    def request_shutdown(self) -> None:
        """Ask the service to stop after draining (signal-handler safe)."""
        self._shutdown_requested = True

    @property
    def shutdown_requested(self) -> bool:
        return self._shutdown_requested

    def shutdown(self) -> Dict[str, Any]:
        """Drain queued requests, release pools, return the summary.

        Idempotent: a second call is a no-op returning the same summary.
        The runner's pools are closed too (:meth:`JobRunner.close` and
        :meth:`ParallelExecutor.close` both tolerate double invocation —
        the service context is exactly where double-close happens, e.g.
        a SIGTERM arriving while a CLI ``finally`` block also closes).
        """
        if self._shutdown:
            return self.summary()
        self.drain()
        self._shutdown = True
        self.sh.runner.set_cancellation(None)
        self.sh.runner.close()
        self.recorder.log("info", "serve", "service-shutdown", **{
            k: v for k, v in self.summary().items()
            if isinstance(v, (int, float))
        })
        self.recorder.scrape("serve-shutdown")
        return self.summary()

    # ------------------------------------------------------------------
    # Bookkeeping, metrics, summaries
    # ------------------------------------------------------------------
    def responses(self) -> List[Response]:
        """Every terminal response so far, in request-id order."""
        return sorted(self._responses, key=lambda r: r.request_id)

    def _breaker(self, name: str) -> CircuitBreaker:
        breaker = self.breakers.get(name)
        if breaker is None:
            breaker = self.breakers[name] = CircuitBreaker(
                name,
                failure_threshold=self.config.breaker_threshold,
                cooldown_s=self.config.breaker_cooldown_s,
            )
        return breaker

    def _finish(self, response: Response) -> None:
        self._responses.append(response)
        self._count(response.tenant, response.outcome)
        self.sh.metrics.observe(
            "serve_latency_s", response.latency_s, LATENCY_BUCKETS
        )
        if response.outcome == OUTCOME_OVERLOADED:
            self.recorder.log(
                "warn", "serve", "request-shed", tenant=response.tenant,
                request=response.request_id,
                retry_after_s=response.retry_after_s,
            )
        else:
            self.recorder.log(
                "info", "serve", f"request-{response.outcome}", volatile=True,
                tenant=response.tenant, request=response.request_id,
                rows=response.rows, latency_s=round(response.latency_s, 6),
                cache_hit=response.cache_hit,
            )

    def _count(self, tenant: str, what: str) -> None:
        names = self._counter_names.get((tenant, what))
        if names is None:
            total = f"SERVE_{what.upper()}"
            names = self._counter_names[tenant, what] = (
                total, f"{total}_T_{sanitize_tenant(tenant)}"
            )
        for name in names:
            self.sh.metrics.inc(name)

    def _gauges(self) -> None:
        metrics = self.sh.metrics
        metrics.set_gauge("serve_virtual_now_s", round(self.now, 6))
        metrics.set_gauge("serve_queue_depth", self.scheduler.queued_count())
        metrics.set_gauge("serve_cache_hit_ratio", self.cache.hit_ratio)
        metrics.set_gauge(
            "serve_breakers_open",
            sum(1 for b in self.breakers.values() if b.state != "closed"),
        )

    @staticmethod
    def _summarize(answer: Any) -> Any:
        """A JSON-safe scalar view of an answer (wire form only)."""
        if answer is None or isinstance(answer, (int, float, bool, str)):
            return answer
        return None

    def summary(self) -> Dict[str, Any]:
        """Terminal-outcome counts plus cache/breaker/tenant snapshots."""
        counts = {outcome: 0 for outcome in (
            OUTCOME_SERVED, OUTCOME_DEGRADED, OUTCOME_OVERLOADED,
            OUTCOME_DEADLINE, OUTCOME_ERROR,
        )}
        for response in self._responses:
            counts[response.outcome] += 1
        return {
            "requests": len(self._responses),
            **counts,
            "cache": self.cache.snapshot(),
            "breakers": {
                name: b.snapshot() for name, b in sorted(self.breakers.items())
            },
            "tenants": self.scheduler.snapshot(),
            "virtual_now_s": round(self.now, 6),
        }

