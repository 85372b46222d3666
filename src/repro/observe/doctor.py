"""The index doctor: structured diagnosis of a spatial index.

``repro doctor <file>`` runs the E5 quality metrics
(:func:`repro.index.quality.measure_quality`) and turns them into
actionable findings: skewed partitions, overlap hot-spots, under-filled
blocks, and registry-level smells (load imbalance, low utilisation, heavy
replication). Each finding carries the numbers behind it, so the output
is useful both as a human report (:meth:`Diagnosis.render`) and as JSON
(:meth:`Diagnosis.to_dict`) for CI gates.

Thresholds are deliberately coarse — the doctor flags what a person
eyeballing the partition heatmap would circle, nothing subtler.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

if TYPE_CHECKING:  # import cycle: index -> mapreduce -> observe -> doctor
    from repro.index.quality import PartitionQuality

#: A partition is *skewed* above this multiple of the median size.
SKEW_FACTOR = 2.0

#: A non-empty partition is *under-filled* below this fraction of capacity.
UNDERFILL_FRACTION = 0.25

#: A partition is an *overlap hot-spot* when the area it shares with other
#: partitions exceeds this fraction of its own area.
OVERLAP_FRACTION = 0.25

#: Registry-level smells.
IMBALANCE_CV = 1.0
LOW_UTILIZATION = 0.5
HIGH_REPLICATION = 1.5


@dataclass
class Finding:
    """One diagnosed problem (or notable observation)."""

    severity: str  # "warning" or "info"
    code: str
    message: str
    partition: Optional[int] = None
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {
            "severity": self.severity,
            "code": self.code,
            "message": self.message,
        }
        if self.partition is not None:
            out["partition"] = self.partition
        if self.data:
            out["data"] = dict(self.data)
        return out


@dataclass
class Diagnosis:
    """The doctor's verdict on one indexed file."""

    file: str
    technique: str
    num_partitions: int
    quality: "PartitionQuality"
    findings: List[Finding] = field(default_factory=list)

    @property
    def healthy(self) -> bool:
        return not any(f.severity == "warning" for f in self.findings)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "file": self.file,
            "technique": self.technique,
            "num_partitions": self.num_partitions,
            "healthy": self.healthy,
            "quality": dataclasses.asdict(self.quality),
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        q = self.quality
        lines = [
            f"index doctor: {self.file} "
            f"({self.technique}, {self.num_partitions} partition(s))",
            f"  area ratio {q.total_area_ratio:.3f}  "
            f"overlap {q.overlap_ratio:.3f}  "
            f"margin {q.total_margin_ratio:.3f}",
            f"  load CV {q.load_balance_cv:.3f}  "
            f"utilization {q.utilization:.3f}  "
            f"replication {q.replication:.3f}",
            f"  partition sizes: min {q.min_partition}  "
            f"median {q.median_partition:g}  max {q.max_partition}",
        ]
        if not self.findings:
            lines.append("  no findings: the index looks healthy")
        for f in self.findings:
            where = f" [partition {f.partition}]" if f.partition is not None else ""
            lines.append(f"  {f.severity.upper()}: {f.message}{where}")
        return "\n".join(lines)


#: A partition is *retry-prone* when job history shows this many failed
#: attempts against its map task.
RETRY_PRONE_ATTEMPTS = 2


def diagnose(
    fs: Any,
    file_name: str,
    block_capacity: Optional[int] = None,
    history: Optional[Any] = None,
) -> Diagnosis:
    """Diagnose the index of ``file_name`` on file system ``fs``.

    With a :class:`~repro.observe.history.JobHistory`, the doctor also
    correlates retained attempt records against this file: partitions
    whose map tasks keep failing or timing out get a *retry-prone*
    finding, pointing at data (or partition sizing) that stresses the
    fault-tolerance machinery.
    """
    from repro.index.quality import measure_quality

    entry = fs.get(file_name)
    gindex = entry.metadata.get("global_index")
    if gindex is None:
        raise ValueError(f"{file_name!r} is not spatially indexed")
    capacity = block_capacity or fs.default_block_capacity
    quality = measure_quality(
        fs, file_name, block_capacity=block_capacity
    )
    findings: List[Finding] = []
    cells = list(gindex)

    median = quality.median_partition
    for cell in cells:
        if median > 0 and cell.num_records > SKEW_FACTOR * median:
            findings.append(
                Finding(
                    severity="warning",
                    code="skewed-partition",
                    message=(
                        f"holds {cell.num_records} records, "
                        f"{cell.num_records / median:.1f}x the median "
                        f"({median:g})"
                    ),
                    partition=cell.cell_id,
                    data={"records": cell.num_records, "median": median},
                )
            )
        if 0 < cell.num_records < UNDERFILL_FRACTION * capacity:
            findings.append(
                Finding(
                    severity="info",
                    code="underfilled-partition",
                    message=(
                        f"holds {cell.num_records} records, under "
                        f"{UNDERFILL_FRACTION:.0%} of the "
                        f"{capacity}-record block capacity"
                    ),
                    partition=cell.cell_id,
                    data={"records": cell.num_records, "capacity": capacity},
                )
            )
        if cell.num_records == 0:
            findings.append(
                Finding(
                    severity="info",
                    code="empty-partition",
                    message="holds no records (dead space in the index)",
                    partition=cell.cell_id,
                )
            )

    # Overlap hot-spots: how much of each partition's area is shared.
    for cell in cells:
        own = cell.mbr.area
        if own <= 0:
            continue
        shared = 0.0
        for other in cells:
            if other.cell_id == cell.cell_id:
                continue
            inter = cell.mbr.intersection(other.mbr)
            if inter is not None:
                shared += inter.area
        fraction = shared / own
        if fraction > OVERLAP_FRACTION:
            findings.append(
                Finding(
                    severity="warning",
                    code="overlap-hotspot",
                    message=(
                        f"{fraction:.0%} of its area is shared with other "
                        f"partitions; range queries there hit several blocks"
                    ),
                    partition=cell.cell_id,
                    data={"overlap_fraction": round(fraction, 4)},
                )
            )

    if quality.load_balance_cv > IMBALANCE_CV:
        findings.append(
            Finding(
                severity="warning",
                code="load-imbalance",
                message=(
                    f"partition sizes vary wildly "
                    f"(CV {quality.load_balance_cv:.2f}); stragglers will "
                    f"dominate the makespan"
                ),
                data={"cv": round(quality.load_balance_cv, 4)},
            )
        )
    if quality.utilization < LOW_UTILIZATION:
        findings.append(
            Finding(
                severity="info",
                code="low-utilization",
                message=(
                    f"blocks are {quality.utilization:.0%} full on average; "
                    f"consider fewer partitions or a smaller block capacity"
                ),
                data={"utilization": round(quality.utilization, 4)},
            )
        )
    if quality.replication > HIGH_REPLICATION:
        findings.append(
            Finding(
                severity="info",
                code="high-replication",
                message=(
                    f"stores {quality.replication:.2f}x the source records; "
                    f"disjoint partitioning is replicating heavily"
                ),
                data={"replication": round(quality.replication, 4)},
            )
        )
    findings.extend(_retry_prone_findings(file_name, history))
    findings.extend(_durability_findings(fs, file_name, entry))
    return Diagnosis(
        file=file_name,
        technique=quality.technique,
        num_partitions=quality.num_partitions,
        quality=quality,
        findings=findings,
    )


def _durability_findings(fs: Any, file_name: str, entry: Any) -> List[Finding]:
    """Storage-health findings: blocks short of their replica target."""
    storage = fs.storage
    target = storage.target_replication
    short = 0
    worst = target
    for block in entry.blocks:
        healthy = len(storage.healthy_replicas(block))
        if healthy < target:
            short += 1
            worst = min(worst, healthy)
    if not short:
        return []
    return [
        Finding(
            severity="warning",
            code="under-replicated-file",
            message=(
                f"{short} of {len(entry.blocks)} block(s) are below the "
                f"replication target of {target} (worst has {worst} "
                f"healthy replica(s)); run 'repro fsck --repair'"
            ),
            data={
                "under_replicated_blocks": short,
                "target_replication": target,
                "min_healthy_replicas": worst,
            },
        )
    ]


def _retry_prone_findings(file_name: str, history: Any) -> List[Finding]:
    """Partitions whose map tasks keep failing, per retained job history.

    Map task IDs are ``map-<block index>``, so attempt records correlate
    directly with the diagnosed file's partitions. Only jobs that read
    ``file_name`` count, and only failed, non-speculative attempts
    (crash / timeout / corrupt / worker-lost) accumulate.
    """
    if history is None:
        return []
    failures: Dict[int, Dict[str, int]] = {}
    for rec in history:
        if file_name not in getattr(rec, "input_files", []):
            continue
        for task in rec.map_tasks:
            for a in getattr(task, "attempts", None) or []:
                if a.speculative or a.outcome == "success":
                    continue
                try:
                    partition = int(task.task_id.rsplit("-", 1)[1])
                except (IndexError, ValueError):
                    continue
                per = failures.setdefault(partition, {})
                per[a.outcome] = per.get(a.outcome, 0) + 1
    findings = []
    for partition in sorted(failures):
        per = failures[partition]
        total = sum(per.values())
        if total < RETRY_PRONE_ATTEMPTS:
            continue
        breakdown = ", ".join(
            f"{count}x {outcome}" for outcome, count in sorted(per.items())
        )
        findings.append(
            Finding(
                severity="warning",
                code="retry-prone-partition",
                message=(
                    f"its map task failed {total} attempt(s) across "
                    f"retained job history ({breakdown})"
                ),
                partition=partition,
                data={"failed_attempts": total, "outcomes": dict(per)},
            )
        )
    return findings
