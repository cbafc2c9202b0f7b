"""Fleet building blocks that run without spawning processes.

Consistent-hash routing, the admission-limit arithmetic and
deadline-capped client retries.  Admission, drain and the health
document live in ``test_lifecycle_contract.py`` (both front ends);
everything that needs a real multi-process fleet lives in
``test_fleet_chaos.py`` (slow lane).
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serving import (
    ADMISSION_FRACTIONS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    DeadlineExceeded,
    HashRing,
    ServerOverloaded,
    ServingClient,
    admission_limit,
)
from repro.serving.client import _remaining_timeout, _retry_sleep


class TestHashRing:
    def test_lookup_is_deterministic(self):
        ring = HashRing(range(4))
        owners = [ring.lookup(f"model-{i}") for i in range(32)]
        again = [ring.lookup(f"model-{i}") for i in range(32)]
        assert owners == again

    def test_all_nodes_receive_keys(self):
        ring = HashRing(range(4))
        owners = {ring.lookup(f"model-{i}") for i in range(256)}
        assert owners == {0, 1, 2, 3}

    def test_walk_yields_each_node_once(self):
        ring = HashRing(range(5))
        order = list(ring.walk("some-model"))
        assert sorted(order) == [0, 1, 2, 3, 4]
        assert order[0] == ring.lookup("some-model")

    def test_single_node_owns_everything(self):
        ring = HashRing([7])
        assert ring.lookup("anything") == 7
        assert list(ring.walk("anything")) == [7]

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])

    @given(nodes=st.integers(2, 8), keys=st.integers(1, 64),
           gone=st.integers(0, 7))
    @settings(max_examples=40, deadline=None)
    def test_removal_remaps_only_the_lost_nodes_keys(
            self, nodes, keys, gone):
        # The affinity property the fleet relies on: when one worker
        # leaves, only the models it owned move; everyone else keeps
        # their warm FFT spectra.
        gone = gone % nodes
        ring = HashRing(range(nodes))
        shrunk = ring.without(gone)
        for i in range(keys):
            key = f"model-{i}"
            before = ring.lookup(key)
            after = shrunk.lookup(key)
            if before != gone:
                assert after == before
            else:
                assert after != gone

    def test_failover_order_matches_shrunken_ring(self):
        # walk()'s second choice is exactly where the key lands once
        # the first owner is removed — failover keeps affinity stable.
        ring = HashRing(range(4))
        for i in range(64):
            key = f"model-{i}"
            first, second = list(ring.walk(key))[:2]
            assert ring.without(first).lookup(key) == second


class TestAdmission:
    def test_high_priority_gets_full_queue(self):
        assert admission_limit(PRIORITY_HIGH, 20) == 20

    def test_fractions_are_monotonic(self):
        limits = [admission_limit(p, 20) for p in
                  (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)]
        assert limits == sorted(limits, reverse=True)
        assert limits[-1] == int(20 * ADMISSION_FRACTIONS[PRIORITY_LOW])

    def test_limit_never_below_one(self):
        assert admission_limit(PRIORITY_LOW, 1) == 1

    def test_unknown_priority_rejected(self):
        with pytest.raises(ValueError, match="priority"):
            admission_limit(9, 20)


class _OverloadedServer:
    """submit() that always answers 'come back in retry_after'."""

    def __init__(self, retry_after):
        self.retry_after = retry_after
        self.calls = 0

    def submit(self, model, volume, timeout=None, trace_id=None,
               **kwargs):
        self.calls += 1
        raise ServerOverloaded("full", retry_after=self.retry_after)


class TestClientDeadline:
    def test_backoff_never_sleeps_past_the_deadline(self):
        # Server hints 10s waits; a 0.3s deadline must fail fast with
        # DeadlineExceeded instead of sleeping 10s between attempts.
        fake = _OverloadedServer(retry_after=10.0)
        client = ServingClient(fake, max_attempts=5)
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded, match="backing off"):
            client.infer("small", np.zeros((9, 9, 9)), timeout=0.3)
        assert time.monotonic() - start < 2.0
        assert fake.calls >= 1

    def test_unbounded_requests_still_retry(self):
        fake = _OverloadedServer(retry_after=0.01)
        client = ServingClient(fake, max_attempts=3)
        with pytest.raises(ServerOverloaded):
            client.infer("small", np.zeros((9, 9, 9)))
        assert fake.calls == 3

    def test_retry_sleep_is_capped_by_backoff_cap(self):
        exc = ServerOverloaded("full", retry_after=60.0)
        assert _retry_sleep(exc, 0.5, deadline=None) == 0.5

    def test_retry_sleep_raises_when_budget_consumed(self):
        exc = ServerOverloaded("full", retry_after=10.0)
        with pytest.raises(DeadlineExceeded):
            _retry_sleep(exc, 10.0, deadline=time.monotonic() + 0.05)

    def test_remaining_timeout_shrinks_per_attempt(self):
        deadline = time.monotonic() + 5.0
        first = _remaining_timeout(5.0, deadline)
        time.sleep(0.02)
        second = _remaining_timeout(5.0, deadline)
        assert second < first <= 5.0

    def test_remaining_timeout_expired_raises(self):
        with pytest.raises(DeadlineExceeded):
            _remaining_timeout(1.0, time.monotonic() - 0.01)

    def test_each_attempt_sends_remaining_budget(self, registry, volume):
        # The server-side deadline must match the client's: later
        # attempts carry less than the original timeout.
        seen = []

        class Recorder:
            def submit(self, model, vol, timeout=None, **kwargs):
                seen.append(timeout)
                if len(seen) < 3:
                    raise ServerOverloaded("busy", retry_after=0.05)

                class Done:
                    @staticmethod
                    def result(timeout=None):
                        return np.ones((1, 1, 1))
                return Done()

        out = ServingClient(Recorder(), max_attempts=5).infer(
            "small", volume, timeout=10.0)
        assert out.size == 1
        assert len(seen) == 3
        assert seen[0] > seen[1] > seen[2]
