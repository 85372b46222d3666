"""repro.observe — structured tracing, metrics, and job history.

The observability layer of the reproduction, threaded through the
MapReduce substrate, index building, the operations, Pigeon and the CLI:

* :class:`Tracer` / :class:`NullTracer` — span tracing with JSONL and
  Chrome ``trace_event`` export (see :mod:`repro.observe.trace` for the
  determinism contract).
* :class:`MetricsRegistry` / :class:`Histogram` — cumulative counters,
  gauges and fixed-bucket histograms.
* :class:`JobHistory` — the Hadoop-JobHistory-style per-job store and
  text report.
* :class:`Recorder` — the runtime's one observability object: it owns
  the channels below and writes each job, wave and driver fact to them.
* :class:`TelemetryLog` / :func:`render_openmetrics` — wave-boundary
  metric scrapes and Prometheus/OpenMetrics text exposition.
* :mod:`repro.observe.profile` — the per-phase task profiler (imported
  as a module; it is stdlib-only so instrumented hot paths can bind it
  lazily without import cycles).
* :func:`compare_snapshots` — the perf-regression sentinel comparing a
  run's metrics against a stored baseline.

Tracing is off by default (the shared ``NULL_TRACER``) and costs
nothing until enabled.
"""

from repro.observe.doctor import (
    OVERLAP_FRACTION,
    SKEW_FACTOR,
    UNDERFILL_FRACTION,
    Diagnosis,
    Finding,
    diagnose,
)
from repro.observe.history import (
    DEFAULT_HISTORY_LIMIT,
    STRAGGLER_FACTOR,
    JobHistory,
    JobRecord,
)
from repro.observe.bundle import (
    BUNDLE_VERSION,
    BundleError,
    collect_bundle,
    import_bundle,
    inspect_bundle,
    read_bundle,
    write_bundle,
)
from repro.observe.diff import (
    DiffReport,
    diff_bundles,
    diff_docs,
)
from repro.observe.log import (
    LOG_VERSION,
    EventLog,
)
from repro.observe.metrics import (
    SHUFFLE_BYTES_BUCKETS,
    TASK_DURATION_BUCKETS,
    Histogram,
    MetricsRegistry,
)
from repro.observe.plan import (
    PLAN_VERSION,
    PlanNode,
    attach_error,
    estimate_job_cost,
)
from repro.observe.progress import UPDATES_PER_WAVE, ProgressReporter
from repro.observe.recorder import NULL_TRACER, Recorder
from repro.observe.sentinel import (
    DEFAULT_TOLERANCE_PCT,
    SentinelReport,
    compare_files,
    compare_snapshots,
)
from repro.observe.telemetry import (
    TELEMETRY_VERSION,
    ExpositionError,
    TelemetryLog,
    parse_exposition,
    read_scrapes,
    render_openmetrics,
    sanitize_metric_name,
)
from repro.observe.trace import (
    TRACE_VERSION,
    NullTracer,
    Tracer,
    normalize_events,
    read_jsonl,
)

# NOTE: repro.observe.explain is intentionally NOT imported here — it
# imports the operations layer, which imports repro.observe.plan; going
# through this package initialiser would close the cycle. Import it as
# ``from repro.observe import explain`` (module) instead.


__all__ = [
    "BUNDLE_VERSION",
    "BundleError",
    "DEFAULT_HISTORY_LIMIT",
    "DEFAULT_TOLERANCE_PCT",
    "Diagnosis",
    "DiffReport",
    "EventLog",
    "ExpositionError",
    "Finding",
    "Histogram",
    "JobHistory",
    "JobRecord",
    "LOG_VERSION",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "OVERLAP_FRACTION",
    "PLAN_VERSION",
    "PlanNode",
    "ProgressReporter",
    "Recorder",
    "SHUFFLE_BYTES_BUCKETS",
    "SKEW_FACTOR",
    "STRAGGLER_FACTOR",
    "SentinelReport",
    "TASK_DURATION_BUCKETS",
    "TELEMETRY_VERSION",
    "TRACE_VERSION",
    "TelemetryLog",
    "Tracer",
    "UNDERFILL_FRACTION",
    "UPDATES_PER_WAVE",
    "attach_error",
    "collect_bundle",
    "compare_files",
    "compare_snapshots",
    "diagnose",
    "diff_bundles",
    "diff_docs",
    "estimate_job_cost",
    "import_bundle",
    "inspect_bundle",
    "normalize_events",
    "read_bundle",
    "write_bundle",
    "parse_exposition",
    "read_jsonl",
    "read_scrapes",
    "render_openmetrics",
    "sanitize_metric_name",
]
