"""Per-dataset circuit breaker: closed -> open -> half-open.

One breaker guards each dataset the service touches. Repeated failures
(storage faults exhausting every replica, task faults exhausting every
retry) trip the breaker *open*; while open, queries against the dataset
are answered from index metadata only (see
:meth:`QueryService._approximate`) instead of erroring. After a cooldown
in virtual time the breaker goes *half-open* and lets exactly one probe
request through: a successful probe closes the breaker, a failed one
re-opens it for another cooldown.

The state machine is driven entirely by the service's virtual clock, so
chaos tests replay the same trips every run.
"""

from __future__ import annotations

from typing import Optional

STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"


class CircuitBreaker:
    """Failure-counting breaker for one dataset."""

    def __init__(
        self,
        name: str,
        failure_threshold: int = 3,
        cooldown_s: float = 120.0,
    ):
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be at least 1")
        if cooldown_s <= 0:
            raise ValueError("cooldown_s must be positive")
        self.name = name
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.state = STATE_CLOSED
        self.consecutive_failures = 0
        self.opened_at_s: Optional[float] = None
        self.trips = 0

    def allow(self, now_s: float) -> bool:
        """May a request touch the dataset at virtual time ``now_s``?

        In the open state this is also the half-open transition: once
        the cooldown has elapsed the *first* caller becomes the probe
        (returns True); until the probe resolves via
        :meth:`record_success` / :meth:`record_failure`, further callers
        are refused.
        """
        if self.state == STATE_CLOSED:
            return True
        if self.state == STATE_OPEN:
            if now_s - (self.opened_at_s or 0.0) >= self.cooldown_s:
                self.state = STATE_HALF_OPEN
                return True
            return False
        # Half-open: the in-flight probe owns the dataset.
        return False

    def record_success(self, now_s: float) -> bool:
        """Note a successful request; returns True when this closed it."""
        reopened = self.state != STATE_CLOSED
        self.state = STATE_CLOSED
        self.consecutive_failures = 0
        self.opened_at_s = None
        return reopened

    def release_probe(self) -> None:
        """Hand back a half-open probe that proved nothing about the
        dataset (a cache hit, the request's own error): the next caller
        probes instead, since the cooldown has already elapsed."""
        if self.state == STATE_HALF_OPEN:
            self.state = STATE_OPEN

    def record_failure(self, now_s: float) -> bool:
        """Note a failed request; returns True when this tripped it open."""
        self.consecutive_failures += 1
        should_open = (
            self.state == STATE_HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        )
        if should_open and self.state != STATE_OPEN:
            self.state = STATE_OPEN
            self.opened_at_s = now_s
            self.trips += 1
            return True
        if should_open:
            # Already open (defensive; open datasets are not probed).
            self.opened_at_s = now_s
        return False

    def snapshot(self) -> dict:
        return {
            "name": self.name,
            "state": self.state,
            "consecutive_failures": self.consecutive_failures,
            "trips": self.trips,
        }

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker({self.name!r}, state={self.state}, "
            f"failures={self.consecutive_failures}, trips={self.trips})"
        )
