"""Single-file run bundles: the shareable flight-recorder artifact.

A bundle freezes one workspace's observability record — file/partition
inventory, metrics snapshot, telemetry scrapes, job history (with phase
profiles and fsck runs), the structured event log, the trace (when one
was recorded), query plans and a fresh storage-health check — into one
versioned, checksummed, compressed file. ``repro diff`` compares two of
them; ``repro report`` renders one as an HTML dashboard; ``repro bundle
import`` restores the logs and history into another workspace.

Format (sibling of the workspace format, same atomic writer)::

    REPROBN\\n | version (u8) | payload crc32 (u32 BE) | length (u64 BE)
             | zlib-compressed JSON payload

Like workspace files, bundles are written atomically (temp + fsync +
rename) and loading verifies magic, version, length and CRC before
decompressing, raising a structured :class:`BundleError` subclass.
"""

from __future__ import annotations

import json
import time
import zlib
from typing import Any, Dict, List, Optional

from repro.core.workspace import read_framed, write_framed

MAGIC = b"REPROBN\n"
BUNDLE_VERSION = 1


class BundleError(Exception):
    """Base class for run-bundle failures."""


class BundleCorruptError(BundleError):
    """The file is truncated, bit-flipped, or otherwise unreadable."""


class BundleVersionError(BundleError):
    """The file declares a format version this release cannot read."""


# ----------------------------------------------------------------------
# Collection
# ----------------------------------------------------------------------
def collect_bundle(
    sh: Any,
    name: str = "run",
    plans: Optional[List[Dict[str, Any]]] = None,
    fsck: bool = True,
) -> Dict[str, Any]:
    """Gather one workspace's full observability record as a JSON doc.

    Collection is read-only: the fsck section comes from a metrics-less
    verification pass, so exporting a bundle never changes what the next
    bundle would contain. ``plans`` carries pre-built EXPLAIN dicts
    (``Explanation.to_dict()``), since only the caller knows which
    queries matter.
    """
    from repro.mapreduce.storage import run_fsck

    runner = sh.runner
    recorder = runner.recorder
    telemetry = recorder.telemetry
    eventlog = recorder.eventlog
    tracer = recorder.tracer

    doc: Dict[str, Any] = {
        "bundle_version": BUNDLE_VERSION,
        "meta": {
            "name": name,
            "created_unix": round(time.time(), 3),
            "workers": runner.workers,
            "num_nodes": sh.cluster.num_nodes,
        },
        "files": [
            _file_section(sh.fs, file_name)
            for file_name in sh.fs.list_files()
        ],
        "metrics": recorder.metrics.snapshot(),
        "telemetry": [] if telemetry is None else list(telemetry.records),
        "history": recorder.history.to_dict(),
        "eventlog": (
            None
            if eventlog is None
            else {
                "level": eventlog.level,
                "capacity": eventlog.capacity,
                "emitted": eventlog.dropped + len(eventlog),
                "records": eventlog.records(),
            }
        ),
        "trace": tracer.records() if tracer.enabled else [],
        "plans": list(plans or []),
        "fsck": run_fsck(sh.fs, repair=False).summary() if fsck else None,
    }
    return doc


def _file_section(fs: Any, file_name: str) -> Dict[str, Any]:
    entry = fs.get(file_name)
    section: Dict[str, Any] = {
        "name": file_name,
        "records": entry.num_records,
        "blocks": entry.num_blocks,
        "indexed": False,
    }
    gindex = entry.metadata.get("global_index")
    if gindex is not None:
        section["indexed"] = True
        section["technique"] = gindex.technique
        section["disjoint"] = bool(gindex.disjoint)
        section["cells"] = [
            {
                "id": cell.cell_id,
                "records": cell.num_records,
                "mbr": [cell.mbr.x1, cell.mbr.y1, cell.mbr.x2, cell.mbr.y2],
            }
            for cell in gindex.cells
        ]
    return section


# ----------------------------------------------------------------------
# File format
# ----------------------------------------------------------------------
def write_bundle(doc: Dict[str, Any], path: Any) -> int:
    """Atomically write ``doc`` to ``path``; returns bytes written."""
    payload = zlib.compress(
        json.dumps(doc, sort_keys=True, default=str).encode("utf-8"), 6
    )
    return write_framed(path, MAGIC, BUNDLE_VERSION, payload)


def read_bundle(path: Any) -> Dict[str, Any]:
    """Load a bundle, verifying magic, version, length and checksum."""
    version, payload = read_framed(path, MAGIC, "bundle", BundleCorruptError)
    if version > BUNDLE_VERSION:
        raise BundleVersionError(
            f"bundle {path} uses format v{version}; this release reads "
            f"up to v{BUNDLE_VERSION}"
        )
    try:
        return json.loads(zlib.decompress(payload).decode("utf-8"))
    except Exception as exc:
        raise BundleCorruptError(
            f"bundle {path} passed its checksum but failed to decode "
            f"({type(exc).__name__}: {exc})"
        ) from exc


# ----------------------------------------------------------------------
# Import and inspection
# ----------------------------------------------------------------------
def import_bundle(sh: Any, doc: Dict[str, Any]) -> Dict[str, int]:
    """Restore a bundle's history, telemetry and event log into ``sh``.

    The reconstructable sections replace the workspace's own: job
    history (via :meth:`JobRecord.from_dict`), telemetry scrapes and
    the event log — so ``repro history/logs/metrics`` browse the
    imported run. The metrics snapshot, trace, plans and fsck sections
    stay bundle-only (cumulative registries and traces cannot be
    faithfully rebuilt from a snapshot); read them with ``repro bundle
    inspect`` / ``repro report``. Returns counts of what was restored.
    """
    from repro.observe.history import JobHistory
    from repro.observe.log import DEFAULT_CAPACITY, EventLog
    from repro.observe.telemetry import TelemetryLog

    recorder = sh.runner.recorder
    history = recorder.history = JobHistory.from_dict(doc.get("history") or {})

    scrapes = list(doc.get("telemetry") or [])
    telemetry = TelemetryLog()
    telemetry.records = scrapes
    telemetry._seq = (
        max((r.get("seq", 0) for r in scrapes), default=-1) + 1
    )
    recorder.telemetry = telemetry

    events = 0
    section = doc.get("eventlog")
    if section is not None:
        recorder.eventlog = EventLog.from_records(
            section.get("records") or [],
            level=section.get("level", "info"),
            capacity=int(section.get("capacity", DEFAULT_CAPACITY)),
            emitted=section.get("emitted"),
        )
        events = len(section.get("records") or [])
    return {
        "jobs": len(history),
        "fsck_runs": len(history.fsck_runs),
        "scrapes": len(scrapes),
        "events": events,
    }


def inspect_bundle(doc: Dict[str, Any], path: Optional[str] = None) -> str:
    """A text summary of a bundle's contents (``bundle inspect``)."""
    meta = doc.get("meta") or {}
    history = doc.get("history") or {}
    eventlog = doc.get("eventlog")
    fsck = doc.get("fsck")
    lines = [
        "=== run bundle"
        + (f" {path}" if path else "")
        + f" (format v{doc.get('bundle_version', '?')}) ===",
        f"  name: {meta.get('name', '?')}   workers: "
        f"{meta.get('workers', '?')}   nodes: "
        f"{meta.get('num_nodes', '?')}",
    ]
    files = doc.get("files") or []
    indexed = sum(1 for f in files if f.get("indexed"))
    records = sum(int(f.get("records", 0)) for f in files)
    lines.append(
        f"  files: {len(files)} ({indexed} indexed), "
        f"{records} record(s) stored"
    )
    lines.append(
        f"  history: {len(history.get('jobs') or [])} job(s) retained of "
        f"{history.get('total_recorded', 0)} recorded, "
        f"{len(history.get('fsck_runs') or [])} fsck run(s)"
    )
    lines.append(f"  telemetry: {len(doc.get('telemetry') or [])} scrape(s)")
    if eventlog is None:
        lines.append("  event log: not attached")
    else:
        lines.append(
            f"  event log: {len(eventlog.get('records') or [])} event(s) "
            f"retained (level {eventlog.get('level', '?')}, "
            f"{eventlog.get('emitted', 0)} emitted)"
        )
    lines.append(f"  trace: {len(doc.get('trace') or [])} record(s)")
    lines.append(f"  plans: {len(doc.get('plans') or [])}")
    if fsck is not None:
        state = "healthy" if fsck.get("healthy") else "UNHEALTHY"
        lines.append(
            f"  storage: {state} — {fsck.get('files_checked', 0)} file(s), "
            f"{fsck.get('blocks_checked', 0)} block(s), "
            f"{fsck.get('issues', 0)} issue(s)"
        )
    return "\n".join(lines)
