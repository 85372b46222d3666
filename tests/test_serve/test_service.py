"""QueryService end to end: serving, admission, degradation, shutdown."""

import pytest

from repro import SpatialHadoop, operations
from repro.datagen import generate_points, generate_rectangles
from repro.geometry import Point, Rectangle
from repro.mapreduce.executor import ParallelExecutor
from repro.serve import (
    Overloaded,
    QueryService,
    ServiceConfig,
    TenantQuota,
)

WINDOW = Rectangle(2e5, 2e5, 6e5, 6e5)
RANGE_Q = "range pts_idx 200000,200000,600000,600000"
RANGE_Q2 = "range pts_idx 100000,300000,500000,700000"
COUNT_Q = "count pts_idx 200000,200000,600000,600000"
KNN_Q = "knn pts_idx 500000,500000 9"


def build_workspace(num_nodes=8, **kwargs):
    sh = SpatialHadoop(
        num_nodes=num_nodes, block_capacity=250, job_overhead_s=0.01,
        **kwargs,
    )
    sh.load("pts", generate_points(1200, "uniform", seed=5))
    sh.index("pts", "pts_idx", technique="str")
    return sh


@pytest.fixture(scope="module")
def shared_ws():
    """A clean workspace shared by tests that don't inject faults."""
    return build_workspace()


class TestBasicServing:
    def test_served_answer_is_bit_identical_to_a_direct_call(self, shared_ws):
        service = shared_ws.serve()
        response = service.query("alice", RANGE_Q)
        direct = shared_ws.range_query("pts_idx", WINDOW)
        assert response.outcome == "served"
        assert not response.degraded
        assert response.result.answer == direct.answer
        assert response.rows == len(direct.answer)
        assert response.cost_s == pytest.approx(response.result.makespan)
        assert response.latency_s == pytest.approx(
            response.finish_s - response.arrival_s
        )

    def test_scalar_answers_ride_the_wire(self, shared_ws):
        service = shared_ws.serve()
        count = service.query("alice", COUNT_Q)
        assert count.to_dict()["answer"] == count.result.answer
        knn = service.query("alice", KNN_Q)
        assert knn.rows == 9

    def test_repeat_query_hits_the_cache(self, shared_ws):
        service = shared_ws.serve()
        first = service.query("alice", RANGE_Q)
        second = service.query("bob", RANGE_Q)  # cache is cross-tenant
        assert not first.cache_hit
        assert second.cache_hit
        assert second.outcome == "served"
        assert second.result is first.result
        assert second.cost_s == pytest.approx(
            service.config.cache_hit_cost_s
        )
        assert service.cache.hits == 1

    def test_workspace_mutation_invalidates_the_cache(self):
        sh = build_workspace(num_nodes=4)
        service = sh.serve()
        heap_q = "range pts 200000,200000,600000,600000"
        first = service.query("alice", heap_q)
        assert service.query("alice", heap_q).cache_hit
        # Recreate the file with identical content: the plan (and so
        # the cache key) is unchanged, but the version moved — the
        # entry must be dropped and the query re-executed.
        sh.fs.delete("pts")
        sh.load("pts", generate_points(1200, "uniform", seed=5))
        after = service.query("alice", heap_q)
        assert not after.cache_hit
        assert service.cache.invalidations == 1
        assert after.result is not first.result  # re-executed
        direct = sh.range_query("pts", WINDOW)
        assert after.result.answer == direct.answer

    def test_unknown_operation_is_a_typed_error(self, shared_ws):
        service = shared_ws.serve()
        response = service.query("alice", "teleport pts_idx")
        assert response.outcome == "error"
        assert response.error_type == "ExplainQueryError"
        assert response.cost_s == pytest.approx(
            service.config.error_cost_s
        )

    @pytest.mark.parametrize(
        "text", ["sjoin pts pts_idx pts pts", "knnjoin pts pts_idx x"]
    )
    def test_extra_join_arguments_are_a_typed_error(self, shared_ws, text):
        response = shared_ws.serve().query("alice", text)
        assert response.outcome == "error"
        assert response.error_type == "ExplainQueryError"

    def test_missing_file_is_a_typed_error(self, shared_ws):
        service = shared_ws.serve()
        response = service.query("alice", "range nope 0,0,1,1")
        assert response.outcome == "error"
        assert response.error_type == "FileNotFoundError"

    def test_max_inflight_defaults_to_cluster_serving_slots(self, shared_ws):
        service = shared_ws.serve()
        assert service.max_inflight == shared_ws.cluster.serving_slots(4)

    def test_bad_max_inflight_rejected(self, shared_ws):
        with pytest.raises(ValueError):
            QueryService(shared_ws, config=ServiceConfig(max_inflight=0))


#: A point the two nearby windows below tell apart: inside the first
#: (x, y >= 500000.1), outside the second (x, y >= 500000.4).
NEAR = Point(500000.25, 500000.25)
NEAR_Q1 = "range idx 500000.1,500000.1,500200.4,500200.4"
NEAR_Q2 = "range idx 500000.4,500000.4,500200.1,500200.1"


class TestExactCacheKey:
    """Queries equal to six significant digits are different entries."""

    @pytest.fixture(scope="class")
    def near_ws(self):
        sh = SpatialHadoop()
        sh.load("pts", generate_points(20000, "gaussian", seed=5) + [NEAR])
        sh.index("pts", "idx", technique="str")
        return sh

    def test_nearby_windows_do_not_share_an_answer(self, near_ws):
        service = near_ws.serve()
        first = service.query("alice", NEAR_Q1)
        assert NEAR in first.result.answer
        second = service.query("alice", NEAR_Q2)
        assert not second.cache_hit
        assert second.result.answer == []
        assert near_ws.serve().query("alice", NEAR_Q2).result.answer == []

    def test_nearby_knn_points_do_not_share_an_answer(self, near_ws):
        service = near_ws.serve()
        texts = ("knn idx 500000.1,500000.1 3", "knn idx 500000.4,500000.4 3")
        first = service.query("alice", texts[0])
        second = service.query("alice", texts[1])
        assert not second.cache_hit
        fresh = near_ws.serve().query("alice", texts[1])
        assert second.result.answer == fresh.result.answer
        assert second.result.answer != first.result.answer

    def test_no_planner_runs_on_the_serve_path(
        self, near_ws, monkeypatch
    ):
        def refuse(*_args, **_kwargs):
            raise AssertionError("a planner ran on the serve path")

        for name in dir(operations):
            if name.startswith("plan_"):
                monkeypatch.setattr(operations, name, refuse)
        service = near_ws.serve()
        texts = [NEAR_Q1, "count idx 4e5,4e5,6e5,6e5", "knn idx 5e5,5e5 4",
                 "skyline idx", "sjoin idx idx"]
        for text in texts + texts:
            assert service.query("alice", text).outcome == "served"
        assert service.cache.hits == len(texts)
        assert service.cache.misses == len(texts)


class TestRequestErrors:
    """An operation's ValueError / TypeError is the request's own fault:
    a typed error answer, no breaker failure, no lost slot."""

    @pytest.fixture(params=[1, 2], ids=["serial", "pool_pinned"])
    def ws(self, request):
        if request.param > 1:
            request.getfixturevalue("pool_pinned")
        sh = build_workspace(num_nodes=4, workers=request.param)
        sh.load("rects", generate_rectangles(200, "uniform", seed=3))
        sh.index("rects", "ridx", technique="grid")
        yield sh
        sh.runner.close()

    @pytest.mark.parametrize("op", ["closestpair", "voronoi"])
    def test_an_op_that_needs_an_index_answers_error_on_a_heap(self, ws, op):
        service = ws.serve()
        response = service.query("alice", f"{op} pts")
        assert response.outcome == "error"
        assert response.error_type == "ValueError"
        assert "not spatially indexed" in response.error
        assert response.cost_s == pytest.approx(service.config.error_cost_s)
        assert len(service._slots) == service.max_inflight
        assert service.breakers["pts"].consecutive_failures == 0

    def test_shape_errors_do_not_open_the_breaker(self, ws):
        service = ws.serve(config=ServiceConfig(breaker_threshold=3))
        for _ in range(3):
            response = service.query("alice", "union ridx")
            assert response.outcome == "error"
            assert response.error_type == "ShapeError"
        assert service.breakers["ridx"].state == "closed"
        other = service.query("bob", "range ridx 0,0,500000,500000")
        assert other.outcome == "served"
        assert len(service._slots) == service.max_inflight

    def test_a_half_open_probe_that_errs_hands_the_probe_back(self, ws):
        service = ws.serve(config=ServiceConfig(
            max_inflight=1, breaker_threshold=1, breaker_cooldown_s=1e-6,
        ))
        service._breaker("ridx").record_failure(-1.0)  # cooldown is over
        probe = service.query("alice", "union ridx")
        assert probe.error_type == "ShapeError"
        probed = service.query("bob", "range ridx 0,0,500000,500000")
        assert probed.outcome == "served"
        assert service.breakers["ridx"].state == "closed"

    def test_a_script_session_survives_a_request_error(self, ws):
        service = ws.serve()
        responses = service.process_script([
            '{"tenant": "alice", "query": "closestpair pts"}',
            '{"tenant": "bob", "query": "range pts_idx 0,0,500000,500000"}',
        ])
        assert [r.outcome for r in responses] == ["error", "served"]
        assert service.summary()["error"] == 1


class TestAdmissionControl:
    def test_queue_overflow_sheds_with_retry_after(self, shared_ws):
        service = shared_ws.serve(
            quotas={"bob": TenantQuota(max_queue=2, max_inflight=1)}
        )
        sheds = [service.submit("bob", RANGE_Q) for _ in range(5)]
        queued = [s for s in sheds if s is None]
        shed = [s for s in sheds if s is not None]
        assert len(queued) == 2
        assert len(shed) == 3
        for response in shed:
            assert response.outcome == "overloaded"
            assert response.error_type == "Overloaded"
            assert response.retry_after_s > 0
        with pytest.raises(Overloaded):
            service.query("bob", RANGE_Q)
        service.drain()
        # Every submission reached exactly one terminal outcome.
        summary = service.summary()
        assert summary["requests"] == 6
        assert summary["served"] + summary["overloaded"] == 6

    def test_quota_inflight_cap_is_never_exceeded(self, shared_ws):
        service = shared_ws.serve(
            quotas={"carol": TenantQuota(max_inflight=1, max_queue=8)},
            config=ServiceConfig(max_inflight=4),
        )
        for query in (RANGE_Q, RANGE_Q2, COUNT_Q, KNN_Q):
            service.submit("carol", query)
        responses = service.drain()
        assert len(responses) == 4
        assert all(r.outcome == "served" for r in responses)
        assert service.scheduler.snapshot()["carol"]["peak_inflight"] == 1
        # Virtually serialized: each starts when the previous finished.
        starts = sorted(r.start_s for r in responses)
        finishes = sorted(r.finish_s for r in responses)
        for nxt, prev_finish in zip(starts[1:], finishes[:-1]):
            assert nxt >= prev_finish - 1e-9

    def test_deadline_blown_while_queued(self, shared_ws):
        service = shared_ws.serve(
            quotas={"dana": TenantQuota(max_inflight=1)}
        )
        service.submit("dana", RANGE_Q)
        service.submit("dana", RANGE_Q2, deadline_s=1e-6)
        responses = service.drain()
        late = responses[1]
        assert late.outcome == "deadline"
        assert late.error_type == "DeadlineExceeded"
        assert "queueing" in late.error
        assert late.cost_s == 0.0  # never occupied a slot


class TestDeadlinePropagation:
    def test_deadline_cancels_mid_query_via_the_runner_token(self):
        sh = build_workspace(num_nodes=4)
        sh.runner.set_faults("hangdriver:*:999")
        service = sh.serve()
        response = service.query("alice", RANGE_Q, deadline_s=5.0)
        assert response.outcome == "deadline"
        assert response.error_type == "DeadlineExceeded"
        # The query occupied its slot right up to the deadline.
        assert response.cost_s == pytest.approx(5.0)
        # The token was uninstalled afterwards.
        assert sh.runner.cancellation is None
        # Once the stall clears, the service keeps serving. (No deadline
        # here: on this 1-slot cluster the timed-out request occupied
        # the slot for its full 5 s budget, so a same-instant retry with
        # its own 5 s deadline would correctly blow it while queued.)
        sh.runner.set_faults(None)
        again = service.query("alice", RANGE_Q)
        assert again.outcome == "served"


    @pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool_pinned"])
    def test_a_half_open_probe_that_blows_its_deadline_hands_it_back(
        self, request, workers
    ):
        if workers > 1:
            request.getfixturevalue("pool_pinned")
        sh = build_workspace(num_nodes=4, workers=workers)
        try:
            service = sh.serve(config=ServiceConfig(
                max_inflight=1, breaker_threshold=1, breaker_cooldown_s=1e-6,
            ))
            service._breaker("pts_idx").record_failure(-1.0)  # cooled down
            sh.runner.set_faults("hangdriver:*:999")
            probe = service.query("alice", RANGE_Q, deadline_s=5.0)
            assert probe.outcome == "deadline"
            # The probe proved nothing about the dataset: the next caller
            # probes instead, and once the stall clears it is served.
            assert service.breakers["pts_idx"].state == "open"
            sh.runner.set_faults(None)
            again = service.query("alice", RANGE_Q2)
            assert again.outcome == "served"
            assert service.breakers["pts_idx"].state == "closed"
        finally:
            sh.runner.close()


class TestDegradation:
    @pytest.fixture()
    def broken_storage(self):
        """A workspace where every replica of the index rots on disk."""
        sh = build_workspace(num_nodes=4)
        truth = len(sh.range_query("pts_idx", WINDOW).answer)
        spec = ",".join(
            f"corruptblock:pts_idx:{block}:{replica}"
            for block in range(len(sh.fs.get("pts_idx").blocks))
            for replica in range(3)
        )
        sh.runner.set_faults(spec)
        return sh, truth

    def test_range_degrades_to_a_metadata_estimate(self, broken_storage):
        sh, truth = broken_storage
        service = sh.serve(config=ServiceConfig(breaker_threshold=2))
        responses = [service.query("alice", RANGE_Q) for _ in range(3)]
        for response in responses:
            assert response.outcome == "degraded"
            assert response.degraded
            assert response.to_dict()["degraded"] is True
        # Uniform-density estimate from the partition catalogue: right
        # order of magnitude, zero block reads.
        estimate = responses[0].answer
        assert 0.5 * truth <= estimate <= 2.0 * truth
        # Two failures tripped the breaker; the third answered from
        # metadata without touching storage at all.
        breaker = service.breakers["pts_idx"]
        assert breaker.state == "open"
        assert breaker.trips == 1
        assert responses[2].error == ""  # no execution attempt, no cause
        counters = sh.metrics.snapshot()["counters"]
        assert counters["SERVE_BREAKER_TRIPS"] == 1
        assert counters["SERVE_DEGRADED"] == 3

    def test_knn_degrades_to_k(self, broken_storage):
        sh, _ = broken_storage
        service = sh.serve(config=ServiceConfig(breaker_threshold=1))
        response = service.query("alice", KNN_Q)
        assert response.outcome == "degraded"
        assert response.answer == 9

    def test_join_has_no_fallback_and_errors_typed(self, broken_storage):
        sh, _ = broken_storage
        service = sh.serve(config=ServiceConfig(breaker_threshold=1))
        service.query("alice", RANGE_Q)  # trips the breaker
        response = service.query("alice", "sjoin pts_idx pts_idx")
        assert response.outcome == "error"
        assert response.error_type == "DatasetUnavailable"
        assert "no degraded fallback" in response.error

    def test_half_open_probe_recloses_the_breaker(self, shared_ws):
        service = shared_ws.serve(config=ServiceConfig(
            max_inflight=1, breaker_threshold=1, breaker_cooldown_s=1e-6,
        ))
        # Trip the breaker by hand at t=0 (storage itself is healthy).
        service._breaker("pts_idx").record_failure(0.0)
        refused = service.query("alice", RANGE_Q)
        assert refused.outcome == "degraded"  # cooldown not yet elapsed
        probed = service.query("alice", RANGE_Q2)
        assert probed.outcome == "served"  # the half-open probe succeeded
        assert service.breakers["pts_idx"].state == "closed"


    def test_a_half_open_cache_hit_hands_the_probe_back(self, shared_ws):
        service = shared_ws.serve(config=ServiceConfig(
            max_inflight=1, breaker_threshold=1, breaker_cooldown_s=1e-6,
        ))
        service.query("alice", RANGE_Q)
        service._breaker("pts_idx").record_failure(service.now)
        assert service.query("alice", RANGE_Q).cache_hit
        probed = service.query("alice", RANGE_Q2)
        assert probed.outcome == "served"
        assert service.breakers["pts_idx"].state == "closed"


class TestServiceFaults:
    def test_burst_fault_floods_admission_once(self, shared_ws):
        sh = shared_ws
        sh.runner.set_faults("burst:alice:10")
        try:
            service = sh.serve()
            first = service.query("alice", RANGE_Q)
            assert first.outcome == "served"
            responses = service.responses()
            # 1 real + 10 synthetic clones; the default queue of 8 admits
            # the real one plus 7 clones, shedding the other 3.
            assert len(responses) == 11
            assert sum(r.synthetic for r in responses) == 10
            assert sum(r.outcome == "overloaded" for r in responses) == 3
            assert sum(r.outcome == "served" for r in responses) == 8
            assert sorted(r.request_id for r in responses) == list(
                range(1, 12)
            )
            # Fire-once: the next alice request brings no new clones.
            service.query("alice", RANGE_Q2)
            assert len(service.responses()) == 12
        finally:
            sh.runner.set_faults(None)

    def test_slowtenant_fault_inflates_every_request_cost(self, shared_ws):
        sh = shared_ws
        sh.runner.set_faults("slowtenant:bob:7")
        try:
            service = sh.serve()
            service.query("alice", RANGE_Q)  # warm the cache
            bob = service.query("bob", RANGE_Q)  # cache hit + 7 s surcharge
            assert bob.cache_hit
            assert bob.cost_s == pytest.approx(
                service.config.cache_hit_cost_s + 7.0
            )
            miss = service.query("bob", RANGE_Q2)
            assert not miss.cache_hit
            assert miss.cost_s >= 7.0
        finally:
            sh.runner.set_faults(None)


class TestShutdown:
    """Satellite: idempotent shutdown and double pool close (PR 9 seam)."""

    def test_shutdown_drains_queued_requests(self):
        sh = build_workspace(num_nodes=4)
        service = sh.serve()
        service.submit("alice", RANGE_Q)
        service.submit("bob", COUNT_Q)
        summary = service.shutdown()
        assert summary["requests"] == 2
        assert summary["served"] == 2
        assert service.scheduler.queued_count() == 0

    def test_shutdown_is_idempotent(self):
        sh = build_workspace(num_nodes=4)
        service = sh.serve()
        service.query("alice", RANGE_Q)
        first = service.shutdown()
        second = service.shutdown()
        assert first == second

    def test_submit_after_shutdown_raises(self):
        sh = build_workspace(num_nodes=4)
        service = sh.serve()
        service.shutdown()
        with pytest.raises(RuntimeError):
            service.submit("alice", RANGE_Q)

    def test_request_shutdown_only_sets_the_flag(self):
        sh = build_workspace(num_nodes=4)
        service = sh.serve()
        assert not service.shutdown_requested
        service.request_shutdown()
        assert service.shutdown_requested
        # Still serving: the flag asks the loop to stop, nothing more.
        assert service.query("alice", RANGE_Q).outcome == "served"

    def test_parallel_executor_survives_double_close(self):
        """Regression: service shutdown + CLI cleanup both close the pool."""
        sh = build_workspace(num_nodes=4, workers=2)
        executor = sh.runner.executor
        assert isinstance(executor, ParallelExecutor)
        service = sh.serve()
        assert service.query("alice", RANGE_Q).outcome == "served"
        service.shutdown()  # closes the runner (and its pool)
        assert executor._pool is None
        # The CLI's finally block, the runner's __del__ and a second
        # service shutdown all close again; every one must be a no-op.
        sh.runner.close()
        executor.close()
        executor.close(wait=False)
        service.shutdown()


class TestObservability:
    def test_tenant_labeled_counters_and_gauges(self):
        sh = build_workspace(num_nodes=4)
        service = sh.serve()
        service.query("alice", RANGE_Q)
        service.query("team-b.svc", RANGE_Q)
        snap = sh.metrics.snapshot()
        counters = snap["counters"]
        assert counters["SERVE_REQUESTS"] == 2
        assert counters["SERVE_SERVED"] == 2
        assert counters["SERVE_SERVED_T_alice"] == 1
        assert counters["SERVE_SERVED_T_team_b_svc"] == 1  # sanitized
        assert counters["SERVE_CACHE_HITS"] == 1
        gauges = snap["gauges"]
        for name in (
            "serve_virtual_now_s", "serve_queue_depth",
            "serve_cache_hit_ratio", "serve_breakers_open",
        ):
            assert name in gauges
        assert "serve_latency_s" in snap["histograms"]

    def test_metric_names_are_openmetrics_safe(self):
        sh = build_workspace(num_nodes=4)
        service = sh.serve()
        service.query("team-b.svc", RANGE_Q)
        text = sh.openmetrics()
        assert "repro_serve_served_t_team_b_svc_total" in text

    def test_eventlog_records_the_request_lifecycle(self):
        sh = build_workspace(num_nodes=4)
        sh.eventlog()  # attach before the service starts
        service = sh.serve()
        service.query("alice", RANGE_Q)
        service.shutdown()
        events = [
            r["event"] for r in sh.eventlog().records()
            if r["component"] == "serve"
        ]
        assert "service-started" in events
        assert "request-served" in events
        assert "service-shutdown" in events

    def test_summary_shape(self):
        sh = build_workspace(num_nodes=4)
        service = sh.serve()
        service.query("alice", RANGE_Q)
        summary = service.summary()
        assert summary["requests"] == 1
        assert summary["served"] == 1
        assert set(summary) >= {
            "requests", "served", "degraded", "overloaded", "deadline",
            "error", "cache", "breakers", "tenants", "virtual_now_s",
        }
        assert summary["tenants"]["alice"]["dispatched"] == 1
