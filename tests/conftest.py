"""Shared fixtures and hypothesis settings for the test suite."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# One-core container: keep property-based runs small and un-timed.
settings.register_profile(
    "repro",
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("repro")


@pytest.fixture
def rng():
    """Deterministic per-test RNG."""
    return np.random.default_rng(12345)


@pytest.fixture
def poison_walk_buffers(monkeypatch):
    """Call to make every array a forward walk's free list hands out
    start as NaN, until the test ends: a pass that reads what it did
    not write, or a buffer handed out while something still reads it,
    shows in the outputs.  The call returns the shapes poisoned so far,
    so a test can tell the walks really drew on the list."""
    from repro.core.network import FreeList

    def install():
        poisoned, take = [], FreeList.take

        def poisoning(self, shape, dtype=np.float64):
            out = take(self, shape, dtype)
            out.fill(np.nan)
            poisoned.append(out.shape)
            return out

        monkeypatch.setattr(FreeList, "take", poisoning)
        return poisoned

    return install


@pytest.fixture(scope="session", autouse=True)
def _repro_check_clean():
    """The REPRO_CHECK=1 CI lane's zero-violation assertion.

    When the suite runs with dynamic concurrency checking enabled, any
    lock-order / recursive-acquire / unheld-release violation recorded
    against the *environment* checking state fails the session at
    teardown.  Tests that provoke
    violations deliberately run against throwaway states (see
    ``tests/analysis/``) and never land here.
    """
    yield
    from repro.analysis.runtime import assert_clean, checking_enabled

    if checking_enabled():
        assert_clean()


class FakeClock:
    """A clock that moves only when a callable from :meth:`takes`
    runs, so a timing through ``repro.utils.timing`` is exact."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def takes(self, seconds):
        """A zero-argument callable that advances the clock by
        *seconds* (a number, or a callable returning the next one)."""
        def run():
            self.now += seconds() if callable(seconds) else seconds
        return run


@pytest.fixture
def fake_clock(monkeypatch):
    """Swap the one ruler's clock for a :class:`FakeClock`."""
    from repro.utils import timing

    clock = FakeClock()
    monkeypatch.setattr(timing, "clock", clock)
    return clock
