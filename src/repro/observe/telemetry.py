"""Telemetry export: OpenMetrics text exposition + wave-boundary scrapes.

Two export surfaces for the :class:`~repro.observe.metrics.MetricsRegistry`:

**Text exposition** (:func:`render_openmetrics`) — the Prometheus /
OpenMetrics text format. Counters, gauges and ``le``-bucket histograms
map directly: counters become ``repro_<name>_total``, histograms emit
cumulative ``_bucket{le=...}`` series plus ``_sum`` / ``_count``, and
optional labels (``workers``, ``tenant``, ``operation``…) are
rendered onto every sample. Names are sanitized defensively (dots and
dashes become underscores) even though the registry validates names at
registration. :func:`parse_exposition` is the matching strict parser,
used by the tests and CI to lint the page — it verifies name charset,
sample syntax, histogram bucket monotonicity and sum/count consistency,
and the ``# EOF`` terminator.

**Scrape log** (:class:`TelemetryLog`) — a deterministic time-series of
registry snapshots taken at wave boundaries (job start, after the map
wave, after the reduce wave, job end). The discipline mirrors
``normalize_events`` in :mod:`repro.observe.trace`: records carry a
sequence number instead of wall-clock timestamps, and timing-derived
series (task-duration histograms, makespan gauges, profiler phase
gauges) are segregated into a ``volatile`` section that the normalized
export drops. The result: the exported JSONL is **bit-identical**
between a serial run and ``workers=N`` — a property the test suite
asserts. The log is plain data, so it
pickles with workspaces and accumulates across CLI invocations.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.observe.metrics import MetricsRegistry, valid_metric_name

#: Version stamp on every scrape record.
TELEMETRY_VERSION = 1

#: Default metric-name prefix on the exposition page.
DEFAULT_PREFIX = "repro_"

#: Gauges derived from wall/CPU clocks — volatile across backends.
VOLATILE_GAUGES = frozenset({"last_job_makespan_s"})

#: Histograms of measured durations — volatile across backends.
VOLATILE_HISTOGRAMS = frozenset({"task_duration_seconds"})

#: Name prefixes that mark a whole family volatile (profiler output,
#: executor-infrastructure counters that only move in degraded modes).
VOLATILE_PREFIXES: Tuple[str, ...] = ("profile_",)

_SAMPLE_RE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(.*)\})?"
    r" (-?(?:[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?|Inf)|\+Inf|NaN)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def sanitize_metric_name(name: str) -> str:
    """Force ``name`` into the exposition charset (defensive)."""
    cleaned = re.sub(r"[^a-zA-Z0-9_:]", "_", str(name))
    if not cleaned or not re.match(r"[a-zA-Z_:]", cleaned[0]):
        cleaned = "_" + cleaned
    return cleaned


def _escape_label(value: Any) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace('"', '\\"')
        .replace("\n", "\\n")
    )


def _render_labels(labels: Optional[Mapping[str, Any]], extra: str = "") -> str:
    parts = []
    if labels:
        for key in sorted(labels):
            parts.append(f'{sanitize_metric_name(key)}="{_escape_label(labels[key])}"')
    if extra:
        parts.append(extra)
    return "{" + ",".join(parts) + "}" if parts else ""


def _format_value(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    value = float(value)
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def render_openmetrics(
    snapshot: Mapping[str, Any],
    prefix: str = DEFAULT_PREFIX,
    labels: Optional[Mapping[str, Any]] = None,
) -> str:
    """The Prometheus/OpenMetrics text page for a registry snapshot.

    ``snapshot`` is :meth:`MetricsRegistry.snapshot` output (or the
    compatible dict stored in a scrape record). ``labels`` are rendered
    onto every sample. Output is deterministic: families sorted by name,
    terminated by ``# EOF``.
    """
    label_str = _render_labels(labels)
    lines: List[str] = []

    for name in sorted(snapshot.get("counters", {})):
        value = snapshot["counters"][name]
        metric = prefix + sanitize_metric_name(name).lower()
        if not metric.endswith("_total"):
            metric += "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric}{label_str} {_format_value(value)}")

    for name in sorted(snapshot.get("gauges", {})):
        value = snapshot["gauges"][name]
        metric = prefix + sanitize_metric_name(name).lower()
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric}{label_str} {_format_value(value)}")

    for name in sorted(snapshot.get("histograms", {})):
        hist = snapshot["histograms"][name]
        metric = prefix + sanitize_metric_name(name).lower()
        lines.append(f"# TYPE {metric} histogram")
        cumulative = 0
        for bound, count in zip(hist["buckets"], hist["counts"]):
            cumulative += count
            le = _render_labels(labels, f'le="{_format_value(bound)}"')
            lines.append(f"{metric}_bucket{le} {cumulative}")
        le = _render_labels(labels, 'le="+Inf"')
        lines.append(f"{metric}_bucket{le} {hist['count']}")
        lines.append(f"{metric}_sum{label_str} {_format_value(hist['sum'])}")
        lines.append(f"{metric}_count{label_str} {hist['count']}")

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


class ExpositionError(ValueError):
    """The exposition page violates the text format."""


def parse_exposition(text: str) -> Dict[str, Dict[str, Any]]:
    """Parse (and strictly validate) an exposition page.

    Returns ``{metric_name: {"type": ..., "samples": [(labels, value)]}}``
    keyed by *sample* name. Raises :class:`ExpositionError` on illegal
    names, malformed lines, non-cumulative histogram buckets,
    ``_count`` / ``+Inf`` mismatches, or a missing ``# EOF``.
    """
    families: Dict[str, str] = {}
    samples: Dict[str, Dict[str, Any]] = {}
    saw_eof = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line.strip():
            continue
        if saw_eof:
            raise ExpositionError(f"line {lineno}: content after # EOF")
        if line == "# EOF":
            saw_eof = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in (
                "counter", "gauge", "histogram", "summary", "untyped"
            ):
                raise ExpositionError(f"line {lineno}: malformed TYPE: {line!r}")
            if not valid_metric_name(parts[2]):
                raise ExpositionError(
                    f"line {lineno}: illegal metric name {parts[2]!r}"
                )
            families[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if match is None:
            raise ExpositionError(f"line {lineno}: malformed sample: {line!r}")
        name, raw_labels, raw_value = match.groups()
        labels: Dict[str, str] = {}
        if raw_labels:
            consumed = 0
            for pair in _LABEL_RE.finditer(raw_labels):
                labels[pair.group(1)] = pair.group(2)
                consumed = pair.end()
            remainder = raw_labels[consumed:].strip().strip(",")
            if remainder:
                raise ExpositionError(
                    f"line {lineno}: malformed labels: {raw_labels!r}"
                )
        value = float(raw_value.replace("+Inf", "inf").replace("Inf", "inf"))
        entry = samples.setdefault(name, {"type": None, "samples": []})
        entry["samples"].append((labels, value))

    if not saw_eof:
        raise ExpositionError("missing # EOF terminator")

    for name, kind in families.items():
        if kind == "histogram":
            _check_histogram(name, samples)
        for suffix in ("", "_bucket", "_sum", "_count", "_total"):
            if name + suffix in samples:
                samples[name + suffix]["type"] = kind
    return samples


def _check_histogram(name: str, samples: Dict[str, Dict[str, Any]]) -> None:
    buckets = samples.get(name + "_bucket", {"samples": []})["samples"]
    if not buckets:
        raise ExpositionError(f"histogram {name}: no _bucket samples")
    series: Dict[Tuple[Tuple[str, str], ...], List[Tuple[float, float]]] = {}
    for labels, value in buckets:
        le = labels.get("le")
        if le is None:
            raise ExpositionError(f"histogram {name}: bucket without le label")
        rest = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
        bound = float("inf") if le == "+Inf" else float(le)
        series.setdefault(rest, []).append((bound, value))
    for rest, points in series.items():
        points.sort(key=lambda p: p[0])
        if points[-1][0] != float("inf"):
            raise ExpositionError(f"histogram {name}: missing +Inf bucket")
        last = -1.0
        for bound, value in points:
            if value < last:
                raise ExpositionError(
                    f"histogram {name}: bucket counts not cumulative"
                )
            last = value
        counts = samples.get(name + "_count", {"samples": []})["samples"]
        for labels, value in counts:
            if tuple(sorted(labels.items())) == rest and value != points[-1][1]:
                raise ExpositionError(
                    f"histogram {name}: _count {value} != +Inf bucket "
                    f"{points[-1][1]}"
                )
    if name + "_sum" not in samples or name + "_count" not in samples:
        raise ExpositionError(f"histogram {name}: missing _sum or _count")


# ----------------------------------------------------------------------
# Scrape log
# ----------------------------------------------------------------------
def is_volatile(name: str) -> bool:
    """Is this metric timing-derived (unstable across backends)?"""
    if name in VOLATILE_GAUGES or name in VOLATILE_HISTOGRAMS:
        return True
    return any(name.startswith(p) for p in VOLATILE_PREFIXES)


def _split_volatile(section: Mapping[str, Any]) -> Tuple[Dict, Dict]:
    stable, volatile = {}, {}
    for name in sorted(section):
        (volatile if is_volatile(name) else stable)[name] = section[name]
    return stable, volatile


class TelemetryLog:
    """Deterministic wave-boundary scrapes of the metrics registry.

    Each :meth:`scrape` appends one record: a sequence number, the event
    that triggered it (``job-start``, ``wave:map``, ``wave:reduce``,
    ``job-end``, ``manual``), the job name, the registry's stable
    counters/gauges/histograms, optionally the in-flight job's counters
    — and a ``volatile`` sub-record holding the timing-derived series.
    :meth:`export_jsonl` writes one JSON object per line; the default
    normalized form drops ``volatile``, which is what makes the file
    bit-identical between serial and parallel runs.
    """

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self._seq = 0

    def __len__(self) -> int:
        return len(self.records)

    def scrape(
        self,
        event: str,
        metrics: Optional[MetricsRegistry] = None,
        job: Optional[str] = None,
        counters: Optional[Mapping[str, int]] = None,
    ) -> Dict[str, Any]:
        snapshot = (
            metrics.snapshot()
            if metrics is not None
            else {"counters": {}, "gauges": {}, "histograms": {}}
        )
        stable_counters, volatile_counters = _split_volatile(snapshot["counters"])
        stable_gauges, volatile_gauges = _split_volatile(snapshot["gauges"])
        stable_hists, volatile_hists = _split_volatile(snapshot["histograms"])
        record: Dict[str, Any] = {
            "v": TELEMETRY_VERSION,
            "seq": self._seq,
            "event": event,
            "job": job,
            "counters": stable_counters,
            "gauges": stable_gauges,
            "histograms": stable_hists,
        }
        if counters is not None:
            record["job_counters"] = dict(sorted(counters.items()))
        volatile: Dict[str, Any] = {}
        if volatile_counters:
            volatile["counters"] = volatile_counters
        if volatile_gauges:
            volatile["gauges"] = volatile_gauges
        if volatile_hists:
            volatile["histograms"] = volatile_hists
        if volatile:
            record["volatile"] = volatile
        self._seq += 1
        self.records.append(record)
        return record

    def normalized_records(self) -> List[Dict[str, Any]]:
        """Records with the timing-derived ``volatile`` section dropped."""
        return [
            {k: v for k, v in record.items() if k != "volatile"}
            for record in self.records
        ]

    def export_jsonl(self, path: str, normalize: bool = True) -> int:
        """Write the log as JSONL; returns the number of records."""
        records = self.normalized_records() if normalize else self.records
        with open(path, "w") as fh:
            for record in records:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
        return len(records)

    def clear(self) -> None:
        self.records.clear()
        self._seq = 0


def read_scrapes(path: str) -> List[Dict[str, Any]]:
    """Load a scrape log written by :meth:`TelemetryLog.export_jsonl`."""
    records = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records
