"""Service chaos suite: multi-tenant workloads under injected faults.

The acceptance bar for the serving layer (ISSUE 10): three tenants
submit a mixed range/kNN/join workload while the fault plan crashes task
attempts, corrupts block replicas, floods one tenant's admission queue
and slows another — and still

* no request is lost or double-answered (ids 1..N, each exactly once),
* every request terminates in one of the typed outcomes,
* a quota'd tenant never exceeds its in-flight cap,
* non-degraded answers are bit-identical to direct ``SpatialHadoop``
  calls, on the serial backend and with ``workers=2`` alike.
"""

import pytest

from repro import SpatialHadoop
from repro.core.splitter import global_index_of
from repro.datagen import generate_points, generate_rectangles
from repro.geometry import Point, Rectangle
from repro.observe.explain import parse_query
from repro.operations.range_query import estimated_matches
from repro.serve import OUTCOMES, ServiceConfig, TenantQuota

from tests.conftest import pin_pool

#: Task + storage + service chaos. Task faults retry transparently;
#: the corrupted replica fails over to a healthy copy; the service
#: faults flood bob's queue and slow carol down. Seeded: every run and
#: every backend injects exactly the same faults.
CHAOS = (
    "seed:11,crash:map:0,random:crash:0.06:7,"
    "corruptblock:pts_idx:0,"
    "burst:bob:3,slowtenant:carol:2"
)

WINDOW = Rectangle(2e5, 2e5, 6e5, 6e5)
QPOINT = Point(5e5, 5e5)

QUOTAS = {
    "bob": TenantQuota(max_queue=2, max_inflight=1),
    "carol": TenantQuota(max_inflight=1, max_queue=8),
}

#: The workload: (tenant, query text, direct-call equivalent).
WORKLOAD = [
    ("alice", "range pts_idx 200000,200000,600000,600000",
     lambda sh: sh.range_query("pts_idx", WINDOW)),
    ("bob", "sjoin l_idx r_idx",
     lambda sh: sh.spatial_join("l_idx", "r_idx")),
    ("carol", "count pts_idx 100000,100000,500000,500000",
     lambda sh: sh.range_count(
         "pts_idx", Rectangle(1e5, 1e5, 5e5, 5e5))),
    ("alice", "knn pts_idx 500000,500000 9",
     lambda sh: sh.knn("pts_idx", QPOINT, 9)),
    ("carol", "range pts 200000,200000,600000,600000",
     lambda sh: sh.range_query("pts", WINDOW)),
    ("alice", "range pts_idx 200000,200000,600000,600000",  # cache hit
     lambda sh: sh.range_query("pts_idx", WINDOW)),
    ("bob", "range pts_idx 300000,300000,700000,700000",
     lambda sh: sh.range_query(
         "pts_idx", Rectangle(3e5, 3e5, 7e5, 7e5))),
]


def build_workspace(faults=None, workers=1):
    sh = SpatialHadoop(
        num_nodes=8, block_capacity=250, job_overhead_s=0.01,
        faults=faults, workers=workers,
    )
    sh.load("pts", generate_points(1200, "uniform", seed=5))
    sh.load("rects_l", generate_rectangles(
        300, "uniform", seed=6, avg_side_fraction=0.03))
    sh.load("rects_r", generate_rectangles(
        300, "uniform", seed=7, avg_side_fraction=0.03))
    sh.index("pts", "pts_idx", technique="str")
    sh.index("rects_l", "l_idx", technique="grid")
    sh.index("rects_r", "r_idx", technique="grid")
    return sh


def run_workload(sh):
    service = sh.serve(quotas=QUOTAS, config=ServiceConfig(max_inflight=2))
    for tenant, text, _direct in WORKLOAD:
        service.submit(tenant, text)
    service.drain()
    return service


class TestServiceChaos:
    @pytest.fixture(scope="class")
    def chaos_run(self):
        sh = build_workspace(faults=CHAOS)
        service = run_workload(sh)
        return sh, service

    def test_no_request_lost_or_double_answered(self, chaos_run):
        _, service = chaos_run
        responses = service.responses()
        ids = [r.request_id for r in responses]
        assert ids == list(range(1, len(responses) + 1))
        # Submissions: 7 scripted + 3 synthetic from bob's burst fault.
        assert len(responses) == 10

    def test_every_request_terminates_in_a_typed_outcome(self, chaos_run):
        _, service = chaos_run
        for response in service.responses():
            assert response.outcome in OUTCOMES
        summary = service.summary()
        assert summary["requests"] == sum(
            summary[outcome] for outcome in OUTCOMES
        )

    def test_bobs_burst_was_shed_not_served(self, chaos_run):
        _, service = chaos_run
        summary = service.summary()
        # bob queued 2 of (2 scripted + 3 synthetic); the rest shed.
        assert summary["overloaded"] == 3
        assert service.scheduler.snapshot()["bob"]["shed"] == 3

    def test_quota_inflight_caps_hold_under_chaos(self, chaos_run):
        _, service = chaos_run
        snap = service.scheduler.snapshot()
        assert snap["bob"]["peak_inflight"] <= 1
        assert snap["carol"]["peak_inflight"] <= 1

    def test_slowtenant_surcharge_is_visible(self, chaos_run):
        _, service = chaos_run
        carol = [
            r for r in service.responses()
            if r.tenant == "carol" and r.outcome == "served"
        ]
        assert carol
        assert all(r.cost_s >= 2.0 for r in carol)

    def test_nondegraded_answers_bit_identical_to_direct_calls(
        self, chaos_run
    ):
        """Task/storage chaos is absorbed below the service: every served
        answer equals the direct call's on a clean workspace."""
        sh_chaos, service = chaos_run
        clean = build_workspace()
        by_id = {r.request_id: r for r in service.responses()}
        request_id = 0
        for tenant, _text, direct in WORKLOAD:
            request_id += 1
            if tenant == "bob" and request_id == 2:
                request_id += 3  # skip the burst clones injected here
            response = by_id[request_id]
            if response.outcome != "served":
                continue
            assert response.result.answer == direct(clean).answer
            assert not response.degraded

    def test_chaos_actually_happened(self, chaos_run):
        sh, service = chaos_run
        counters = sh.metrics.snapshot()["counters"]
        assert counters.get("FAULTS_INJECTED", 0) >= 1
        assert counters.get("TASKS_RETRIED", 0) >= 1
        assert counters["SERVE_OVERLOADED"] == 3


def strip_timing(value):
    """Drop measured-time-derived fields from a wire dict, recursively.

    Simulated makespans embed *measured* per-task CPU seconds (see
    tests/test_mapreduce/test_executors.py), so latencies, costs and the
    virtual clock are statistically — not bit — equal across backends.
    Everything else must match exactly.
    """
    if isinstance(value, dict):
        return {
            k: strip_timing(v)
            for k, v in value.items()
            if not k.endswith("_s") and k != "vt"
        }
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value


class TestBackendEquivalence:
    """The whole service session replays identically with workers=2:
    same admissions, same shed set, same answers, same outcome for
    every request — only measured wall-clock-derived floats may drift."""

    @pytest.fixture(scope="class")
    def both_backends(self):
        serial = run_workload(build_workspace(faults=CHAOS, workers=1))
        with pin_pool():
            parallel = run_workload(build_workspace(faults=CHAOS, workers=2))
        return serial, parallel

    def test_wire_responses_identical(self, both_backends):
        serial, parallel = both_backends
        wire_serial = [strip_timing(r.to_dict()) for r in serial.responses()]
        wire_parallel = [
            strip_timing(r.to_dict()) for r in parallel.responses()
        ]
        assert wire_serial == wire_parallel

    def test_summaries_identical(self, both_backends):
        serial, parallel = both_backends
        assert strip_timing(serial.summary()) == strip_timing(
            parallel.summary()
        )


class TestDegradedChaos:
    """Storage loss: queries degrade, joins fail typed, nothing hangs."""

    @pytest.fixture(scope="class")
    def degraded_run(self):
        sh = build_workspace()
        truth = len(sh.range_query("pts_idx", WINDOW).answer)
        # Every replica of every block of every dataset rots before the
        # first service query: reads cannot fail over anywhere.
        sh.runner.set_faults(",".join(
            f"corruptblock:{name}:{block}:{replica}"
            for name in sh.fs.list_files()
            for block in range(len(sh.fs.get(name).blocks))
            for replica in range(3)
        ))
        service = sh.serve(
            quotas=QUOTAS,
            config=ServiceConfig(max_inflight=2, breaker_threshold=1),
        )
        for tenant, text, _direct in WORKLOAD:
            service.submit(tenant, text)
        # One more bob request overflows his queue of 2, and carol's
        # extra request carries a deadline it cannot make behind her
        # max_inflight=1 backlog — so one chaos run exercises every
        # terminal outcome class.
        service.submit("bob", "range pts_idx 0,0,900000,900000")
        service.submit(
            "carol", "count pts_idx 0,0,900000,900000", deadline_s=1e-6
        )
        service.drain()
        return sh, service, truth

    def test_all_requests_terminate(self, degraded_run):
        _, service, _ = degraded_run
        responses = service.responses()
        assert len(responses) == len(WORKLOAD) + 2
        assert all(r.outcome in OUTCOMES for r in responses)
        assert service.scheduler.queued_count() == 0
        # All four failure-path outcomes appear in this one run.
        outcomes = {r.outcome for r in responses}
        assert {"degraded", "error", "overloaded", "deadline"} <= outcomes

    def test_degradable_ops_answer_approximately(self, degraded_run):
        _, service, truth = degraded_run
        degraded = [
            r for r in service.responses() if r.outcome == "degraded"
        ]
        assert degraded  # storage is gone: range/count/knn fell back
        for response in degraded:
            assert response.degraded
            assert isinstance(response.answer, int)
        range_est = next(
            r.answer for r in degraded
            if r.query.startswith("range pts_idx 200000")
        )
        assert 0.5 * truth <= range_est <= 2.0 * truth
        # On an indexed dataset the fallback is the planner's
        # uniform-density estimator over every partition.
        fs = degraded_run[0].fs
        checked = 0
        for response in degraded:
            query = parse_query(response.query)
            gindex = global_index_of(fs, query.file)
            if query.window is not None and gindex is not None:
                checked += 1
                assert response.answer == estimated_matches(
                    gindex.cells, query.window
                )
        assert checked

    def test_joins_fail_typed_not_hanging(self, degraded_run):
        _, service, _ = degraded_run
        join = next(
            r for r in service.responses() if r.query.startswith("sjoin")
        )
        assert join.outcome == "error"

    def test_breakers_opened_and_are_reported(self, degraded_run):
        sh, service, _ = degraded_run
        summary = service.summary()
        open_breakers = [
            name for name, b in summary["breakers"].items()
            if b["state"] != "closed"
        ]
        assert open_breakers
        assert sh.metrics.snapshot()["counters"]["SERVE_BREAKER_TRIPS"] >= 1


class TestCacheInvalidationUnderMutation:
    def test_mutated_dataset_is_reread_not_served_stale(self):
        sh = build_workspace()
        service = sh.serve()
        text = "range pts 200000,200000,600000,600000"
        first = service.query("alice", text)
        assert service.query("alice", text).cache_hit
        # Recreate with identical content: same plan, same cache key,
        # but a bumped file version — stale entry must be dropped.
        sh.fs.delete("pts")
        sh.load("pts", generate_points(1200, "uniform", seed=5))
        fresh = service.query("alice", text)
        assert not fresh.cache_hit
        assert service.cache.invalidations == 1
        assert fresh.result is not first.result  # re-executed
        direct = sh.range_query("pts", WINDOW)
        assert fresh.result.answer == direct.answer
