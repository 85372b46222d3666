"""E16: checkpoint overhead — is crash consistency cheap enough to arm?

The wave journal makes any driver death resumable, but nobody arms a
safety net that slows the fault-free path. Budget: **under 5%
overhead** with checkpointing on versus off, gated on a mixed
analytics suite (kNN, selective range queries, skyline, convex hull —
the shape of real interactive use, where waves carry compute and
modest outputs). Two deliberately output-dominated stress workloads
ride along at a slack bound: a range *scan* whose final wave journals
every input point, and the E4 spatial join whose single wave journals
the entire pair answer — there the journal's cost is proportional to
the answer itself and no serialisation trick changes that asymptote.
Each armed rep journals to a fresh directory and garbage-collects it,
so every number includes the full cost — manifest write, opening the
run's append-only wave log, per-wave pack + pickle + CRC and one
``write`` of the frame (no per-wave file, no rename), final GC — not
just the steady state.

The budget gates on the **attributed** overhead:
``CheckpointManager.overhead_s`` accumulates the wall time spent
arming, committing and collecting, which is deterministic run to run.
The end-to-end A/B wall delta (interleaved off/on pairs, median of
paired deltas, the E15 noise discipline) is recorded alongside as
corroboration, but only gated at a slack CI bound: on these sub-second
workloads a single scheduler preemption costs more than the entire
journal, so the wall estimate wobbles several percent between runs
while the attributed number does not. A final experiment crashes a run
mid-flight and times the resumed completion, recording how many waves
replayed from the journal versus re-executed. Results land in
``BENCH_e16.json``; DESIGN.md's crash-recovery section quotes them.
"""

from __future__ import annotations

import json
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, Tuple

import pytest

from bench_utils import fmt_s, make_system
from repro import SpatialHadoop
from repro.datagen import generate_points, generate_rectangles
from repro.geometry import Point, Rectangle
from repro.mapreduce.checkpoint import DriverCrashed

N_POINTS = 50_000
N_RECTS = 6_000
BLOCK_CAPACITY = 4_000
REPS = 9
#: The acceptance budget: fault-free checkpointing must cost < 5% on
#: the representative suite, gated on the attributed
#: (``CheckpointManager.overhead_s``) cost.
MAX_OVERHEAD_PCT = 5.0
#: Slack bound for the output-dominated stress workloads and for the
#: end-to-end wall A/B estimates, which ride CI scheduler jitter.
ASSERT_OVERHEAD_PCT = 15.0

#: Selective windows (9% and 25% of the domain) plus a full-domain
#: scan; the suite uses the selective pair, the scan stress all three.
WINDOWS = [
    Rectangle(1e5, 1e5, 4e5, 4e5),
    Rectangle(3e5, 3e5, 8e5, 8e5),
    Rectangle(0.0, 0.0, 1e6, 1e6),
]
KNN_QUERIES = [Point(2e5, 3e5), Point(5e5, 5e5), Point(8e5, 7e5)]

RESULTS_PATH = Path(__file__).resolve().parent.parent / "BENCH_e16.json"
_RESULTS: Dict[str, dict] = {}


@pytest.fixture(scope="module", autouse=True)
def write_results():
    yield
    if _RESULTS:
        RESULTS_PATH.write_text(json.dumps(_RESULTS, indent=2) + "\n")


def time_modes(
    tmp_path: Path,
    build: Callable[[SpatialHadoop], None],
    measure: Callable[[SpatialHadoop], object],
) -> Tuple[float, float, float, int]:
    """Measure ``measure`` with the wave journal off versus on.

    One workspace, a warm-up pass, then interleaved off/on repetitions
    (within-pair order alternating) — the same noise discipline as E15.
    Every armed rep journals to a fresh directory and finishes (GCs) it
    inside the timed region: arming, committing and collecting are all
    part of what a ``--checkpoint`` run pays.

    Returns ``(off_s, attributed_s, wall_delta_s, waves)``. The
    attributed cost is the median of ``CheckpointManager.overhead_s``
    across armed reps — wall time provably spent journaling. The wall
    delta is the **median of paired deltas** (on − off within each
    adjacent pair, cancelling baseline drift the way independent
    medians cannot); it corroborates the attributed number but rides
    whatever preemption noise the host adds.
    """
    sh = make_system(block_capacity=BLOCK_CAPACITY)
    try:
        build(sh)
        baseline = measure(sh)  # warm-up, also the reference answer
        times: Dict[bool, list] = {False: [], True: []}
        attributed: list = []
        waves = 0
        order = [False, True]
        for rep in range(REPS):
            order = order[::-1]
            for armed in order:
                directory = tmp_path / f"e16-{rep}-{int(armed)}.ckpt"
                start = time.perf_counter()
                if armed:
                    manager = sh.enable_checkpoints(directory)
                answer = measure(sh)
                if armed:
                    waves = manager.waves_committed
                    manager.finish()
                    sh.runner.set_checkpoint(None)
                    attributed.append(manager.overhead_s)
                times[armed].append(time.perf_counter() - start)
                assert answer == baseline, (
                    "checkpointing must not change answers"
                )
        deltas = [on - off for on, off in zip(times[True], times[False])]
        return (
            statistics.median(times[False]),
            statistics.median(attributed),
            statistics.median(deltas),
            waves,
        )
    finally:
        sh.runner.close()


def sweep(
    report, tmp_path, title: str, build, measure
) -> Tuple[float, float]:
    off_s, attributed_s, wall_delta_s, waves = time_modes(
        tmp_path, build, measure
    )
    assert waves > 0, "armed runs must have journaled waves"
    attributed_pct = 100.0 * attributed_s / off_s
    wall_pct = 100.0 * wall_delta_s / off_s
    report.add(
        title,
        ["checkpointing", "wall", "waves journaled", "overhead"],
        [
            ["off", fmt_s(off_s), "-", "-"],
            [
                "on (attributed)",
                fmt_s(off_s + attributed_s),
                waves,
                f"+{attributed_pct:.1f}%",
            ],
            [
                "on (wall A/B)",
                fmt_s(off_s + wall_delta_s),
                waves,
                f"{wall_pct:+.1f}%",
            ],
        ],
    )
    _RESULTS[title] = {
        "wall_off_s": round(off_s, 4),
        "attributed_overhead_s": round(attributed_s, 4),
        "attributed_overhead_pct": round(attributed_pct, 2),
        "wall_delta_s": round(wall_delta_s, 4),
        "wall_overhead_pct": round(wall_pct, 2),
        "waves_journaled": waves,
        "budget_pct": MAX_OVERHEAD_PCT,
    }
    return attributed_pct, wall_pct


def build_points(sh: SpatialHadoop):
    sh.load("pts", generate_points(N_POINTS, "uniform", seed=16))
    sh.index("pts", "pts_idx", technique="str")


class TestE16SuiteOverhead:
    """The budget gate: a mixed analytics suite over 50k indexed points.

    Three kNN queries (multi-round correctness loops), the two
    selective range windows, a skyline and a convex hull — ten
    journaled waves whose payloads are dominated by compute, not
    output, like real interactive workloads."""

    build = staticmethod(build_points)

    @staticmethod
    def measure(sh: SpatialHadoop):
        out = []
        for q in KNN_QUERIES:
            out.append(sorted(sh.knn("pts_idx", q, k=10).answer))
        for w in WINDOWS[:2]:
            out.append(sorted(sh.range_query("pts_idx", w).answer))
        out.append(sorted(sh.skyline("pts").answer))
        out.append(sorted(sh.convex_hull("pts").answer))
        return out

    def test_overhead_within_budget(self, report, tmp_path):
        attributed, wall = sweep(
            report,
            tmp_path,
            "E16a checkpoint overhead: mixed analytics suite (50k points)",
            self.build,
            self.measure,
        )
        assert attributed < MAX_OVERHEAD_PCT
        assert wall < ASSERT_OVERHEAD_PCT


class TestE16RangeScanStress:
    """Worst case 1: the scan's final wave journals every input point.

    Journal bytes scale with the answer, so the overhead floor is the
    cost of serialising the output once more — gated at the slack
    bound and recorded so DESIGN.md can quote the honest worst case."""

    build = staticmethod(build_points)

    @staticmethod
    def measure(sh: SpatialHadoop):
        return [
            sorted(sh.range_query("pts_idx", w).answer) for w in WINDOWS
        ]

    def test_overhead_within_stress_bound(self, report, tmp_path):
        attributed, wall = sweep(
            report,
            tmp_path,
            "E16b checkpoint stress: range scan (50k points, full window)",
            self.build,
            self.measure,
        )
        assert attributed < ASSERT_OVERHEAD_PCT
        assert wall < ASSERT_OVERHEAD_PCT


class TestE16SpatialJoinStress:
    """Worst case 2: the join's single wave journals the whole answer."""

    @staticmethod
    def build(sh: SpatialHadoop):
        sh.load("a", generate_rectangles(N_RECTS, "uniform", seed=7))
        sh.load("b", generate_rectangles(N_RECTS, "uniform", seed=8))
        sh.index("a", "a_idx", technique="str")
        sh.index("b", "b_idx", technique="str")

    @staticmethod
    def measure(sh: SpatialHadoop):
        return len(sh.spatial_join("a_idx", "b_idx").answer)

    def test_overhead_within_stress_bound(self, report, tmp_path):
        attributed, wall = sweep(
            report,
            tmp_path,
            "E16c checkpoint stress: spatial join (2x6k rects)",
            self.build,
            self.measure,
        )
        assert attributed < ASSERT_OVERHEAD_PCT
        assert wall < ASSERT_OVERHEAD_PCT


class TestE16RecoverySpeed:
    """Crash the range-query driver after its penultimate wave; the
    resumed invocation replays the journal and only re-executes the
    tail."""

    def test_resume_replays_instead_of_reexecuting(self, report, tmp_path):
        sh = make_system(block_capacity=BLOCK_CAPACITY)
        try:
            TestE16RangeScanStress.build(sh)
            want = TestE16RangeScanStress.measure(sh)

            start = time.perf_counter()
            clean = TestE16RangeScanStress.measure(sh)
            clean_s = time.perf_counter() - start

            probe = sh.enable_checkpoints(tmp_path / "probe.ckpt")
            TestE16RangeScanStress.measure(sh)
            waves = probe.waves_committed
            probe.finish()
            sh.runner.set_checkpoint(None)
            assert waves >= 2

            directory = tmp_path / "crash.ckpt"
            sh.runner.set_faults(f"crashdriver:{waves - 2}")
            sh.enable_checkpoints(directory)
            try:
                TestE16RangeScanStress.measure(sh)
                raise AssertionError("injected crash did not fire")
            except DriverCrashed:
                pass
            sh.runner.set_faults(None)

            start = time.perf_counter()
            manager = sh.resume(directory)
            got = TestE16RangeScanStress.measure(sh)
            resumed_s = time.perf_counter() - start
            manager.finish()
            sh.runner.set_checkpoint(None)

            assert got == want, "resume must be bit-identical"
            assert manager.waves_replayed == waves - 1
            report.add(
                "E16d crash after wave "
                f"{waves - 2}/{waves - 1}, then resume",
                ["run", "wall", "waves replayed", "waves executed"],
                [
                    ["uninterrupted", fmt_s(clean_s), "-", waves],
                    [
                        "resumed",
                        fmt_s(resumed_s),
                        manager.waves_replayed,
                        manager.waves_committed,
                    ],
                ],
            )
            _RESULTS["E16d recovery"] = {
                "clean_wall_s": round(clean_s, 4),
                "resumed_wall_s": round(resumed_s, 4),
                "waves_total": waves,
                "waves_replayed": manager.waves_replayed,
                "waves_reexecuted": manager.waves_committed,
            }
        finally:
            sh.runner.close()
