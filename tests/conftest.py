"""Suite-wide fixtures: pinning the parallel executor to its pool.

``ParallelExecutor.run_wave`` runs a wave in the driver unless its pool
has measured faster for that kind of wave, so on a small host most waves
of a test never reach a worker. Tests that compare the pool with the
serial backend pin every wave to the pool, whole, with ``pool_pinned``
(or :func:`pin_pool` in a wider-scoped fixture); when ``REPRO_WORKERS``
is set, the whole session is pinned, so that run keeps comparing the
pool against serial. ``gate_live`` undoes a session pin for the tests
of the gate itself.
"""

import contextlib
import os

import pytest

from repro.mapreduce import ParallelExecutor
from repro.mapreduce.executor import WORKERS_ENV_VAR

_LIVE_RUN_WAVE = ParallelExecutor.run_wave


def pinned_run_wave(self, fn, chunks, kind, records):
    """A wave past the dispatch gate: all of it goes to the pool."""
    results = self.map_chunks(fn, chunks)
    self.last_dispatch = {"reason": "pinned", **self.last_dispatch}
    return results


@contextlib.contextmanager
def pin_pool():
    """Every wave of a parallel executor goes to the pool while open."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ParallelExecutor, "run_wave", pinned_run_wave)
        yield


@pytest.fixture(autouse=True, scope="session")
def _pool_pinned_under_repro_workers():
    if not os.environ.get(WORKERS_ENV_VAR, "").strip():
        yield
        return
    with pin_pool():
        yield


@pytest.fixture
def pool_pinned():
    """Every wave of a parallel executor goes to the pool."""
    with pin_pool():
        yield


@pytest.fixture
def gate_live(monkeypatch):
    """The dispatch gate decides, even in a pool-pinned session."""
    monkeypatch.setattr(ParallelExecutor, "run_wave", _LIVE_RUN_WAVE)
