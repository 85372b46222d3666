"""The per-dataset circuit breaker state machine, on a virtual clock."""

import pytest

from repro.serve import CircuitBreaker
from repro.serve.breaker import STATE_CLOSED, STATE_HALF_OPEN, STATE_OPEN


class TestValidation:
    def test_threshold_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker("d", failure_threshold=0)

    def test_cooldown_must_be_positive(self):
        with pytest.raises(ValueError):
            CircuitBreaker("d", cooldown_s=0.0)


class TestStateMachine:
    def test_starts_closed_and_allows(self):
        breaker = CircuitBreaker("d")
        assert breaker.state == STATE_CLOSED
        assert breaker.allow(0.0)

    def test_failures_below_threshold_stay_closed(self):
        breaker = CircuitBreaker("d", failure_threshold=3)
        assert not breaker.record_failure(0.0)
        assert not breaker.record_failure(1.0)
        assert breaker.state == STATE_CLOSED
        assert breaker.allow(2.0)

    def test_threshold_trips_open(self):
        breaker = CircuitBreaker("d", failure_threshold=2, cooldown_s=10.0)
        assert not breaker.record_failure(0.0)
        assert breaker.record_failure(1.0)  # True: this call tripped it
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 1
        assert not breaker.allow(5.0)  # still cooling down

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker("d", failure_threshold=2)
        breaker.record_failure(0.0)
        assert not breaker.record_success(1.0)  # closing a closed breaker
        assert breaker.consecutive_failures == 0
        breaker.record_failure(2.0)
        assert breaker.state == STATE_CLOSED  # streak restarted at zero

    def test_cooldown_elapsed_admits_exactly_one_probe(self):
        breaker = CircuitBreaker("d", failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(0.0)
        assert breaker.allow(10.0)  # the probe
        assert breaker.state == STATE_HALF_OPEN
        assert not breaker.allow(10.0)  # the probe owns the dataset
        assert not breaker.allow(500.0)

    def test_probe_success_closes(self):
        breaker = CircuitBreaker("d", failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        assert breaker.record_success(10.5)  # True: this call closed it
        assert breaker.state == STATE_CLOSED
        assert breaker.consecutive_failures == 0
        assert breaker.allow(11.0)

    def test_probe_failure_reopens_for_another_cooldown(self):
        breaker = CircuitBreaker("d", failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        assert breaker.record_failure(10.5)  # True: re-tripped
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 2
        assert not breaker.allow(15.0)  # cooldown restarts at 10.5
        assert breaker.allow(20.5)

    def test_a_released_probe_passes_to_the_next_caller(self):
        breaker = CircuitBreaker("d", failure_threshold=1, cooldown_s=10.0)
        breaker.record_failure(0.0)
        breaker.allow(10.0)
        breaker.release_probe()
        assert breaker.state == STATE_OPEN
        assert breaker.trips == 1
        assert breaker.allow(10.5)  # the cooldown is still over
        assert breaker.state == STATE_HALF_OPEN
        breaker.record_success(11.0)
        breaker.release_probe()  # no probe out: nothing changes
        assert breaker.state == STATE_CLOSED

    def test_snapshot_and_repr(self):
        breaker = CircuitBreaker("pts_idx", failure_threshold=1)
        breaker.record_failure(3.0)
        snap = breaker.snapshot()
        assert snap == {
            "name": "pts_idx",
            "state": STATE_OPEN,
            "consecutive_failures": 1,
            "trips": 1,
        }
        assert "pts_idx" in repr(breaker)
