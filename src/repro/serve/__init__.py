"""Multi-tenant query service over a shared SpatialHadoop workspace.

ROADMAP item 1: a long-lived service layer in front of
:class:`~repro.core.system.SpatialHadoop` that accepts concurrent query
sessions from named tenants, bounds in-flight work against the simulated
cluster's capacity, and degrades predictably instead of collapsing.

The moving parts, one module each:

* :mod:`repro.serve.protocol`  — requests, responses, typed rejections
  (:class:`Overloaded`), tenant quotas and the line-oriented wire format;
* :mod:`repro.serve.scheduler` — admission control and the weighted-fair
  queueing dispatcher with per-tenant quotas;
* :mod:`repro.serve.breaker`   — the per-dataset circuit breaker
  (closed → open → half-open);
* :mod:`repro.serve.cache`     — the LRU result cache keyed on the
  parsed query's exact values (:meth:`~repro.observe.explain.Query.key`),
  invalidated by file version;
* :mod:`repro.serve.service`   — :class:`QueryService`, the event loop
  tying them together on a deterministic virtual clock.

Like the rest of the simulator the service is single-process and
deterministic: "concurrency" is modelled in virtual time (the same
clock the :class:`~repro.mapreduce.cluster.ClusterModel` charges), so a
chaos run replays bit-identically and latency percentiles are exact.
"""

from repro.serve.breaker import CircuitBreaker
from repro.serve.cache import ResultCache
from repro.serve.protocol import (
    OUTCOMES,
    BadRequest,
    DatasetUnavailable,
    Overloaded,
    Request,
    Response,
    ServeError,
    TenantQuota,
    parse_quota_spec,
)
from repro.serve.scheduler import FairScheduler
from repro.serve.service import QueryService, ServiceConfig

__all__ = [
    "BadRequest",
    "CircuitBreaker",
    "DatasetUnavailable",
    "FairScheduler",
    "OUTCOMES",
    "Overloaded",
    "QueryService",
    "Request",
    "Response",
    "ResultCache",
    "ServeError",
    "ServiceConfig",
    "TenantQuota",
    "parse_quota_spec",
]
