"""Request pipeline: client backpressure, work conservation, retries.

Admission, deadlines, drain and stop — the lifecycle shared with the
fleet — are covered for both front ends by
``test_lifecycle_contract.py``.
"""

import threading
import time

import numpy as np
import pytest

from repro.observability import get_registry as metrics_registry
from repro.resilience import FaultPlan, RetryPolicy, clear_plan, \
    install_plan
from repro.serving import (
    InferenceServer,
    ServerOverloaded,
    ServingClient,
    WarmModel,
)

from test_registry import mid_sum_occurrences


def make_server(registry, **kwargs):
    kwargs.setdefault("num_workers", 2)
    kwargs.setdefault("max_queue", 4)
    kwargs.setdefault("tile_voxels", 1000)
    return InferenceServer(registry, **kwargs)


class TestRoundTrip:
    def test_infer_returns_dense_output(self, registry, volume):
        with make_server(registry) as server:
            out = server.infer("small", volume)
        assert out.shape == tuple(v - 4 for v in volume.shape)


class TestBackpressure:
    def test_client_retries_until_capacity(self, registry, volume):
        with make_server(registry, max_queue=1) as server:
            server.gate.clear()
            time.sleep(0.05)
            first = server.submit("small", volume)
            client = ServingClient(server, max_attempts=20,
                                   backoff_cap=0.05)
            done = threading.Event()
            result = {}

            def retrying_infer():
                result["out"] = client.infer("small", volume)
                done.set()

            t = threading.Thread(target=retrying_infer)
            t.start()
            time.sleep(0.1)  # client is being rejected meanwhile
            server.gate.set()
            assert done.wait(30)
            t.join()
            assert np.array_equal(result["out"],
                                  first.result(timeout=30))

    def test_client_gives_up_after_max_attempts(self, registry, volume):
        with make_server(registry, max_queue=1) as server:
            server.gate.clear()
            time.sleep(0.05)
            server.submit("small", volume)
            client = ServingClient(server, max_attempts=2,
                                   backoff_cap=0.01)
            with pytest.raises(ServerOverloaded):
                client.infer("small", volume)
            server.gate.set()

    def test_overload_rejects_under_nonreentrant_lock(self, small_model,
                                                      volume, monkeypatch):
        # Regression: submit()'s rejection path used to compute the
        # retry hint by re-entering the admission condition's lock.  The default Condition RLock masked the recursion; with
        # checking enabled the lock is non-reentrant, so the old code
        # would raise recursive-acquire here instead of overload.
        # Everything built under the throwaway state (whose CheckedLocks
        # are bound to it) is also closed under it — hence a private
        # registry rather than the fixture, whose teardown runs after
        # the monkeypatch reverts.
        from repro.analysis import runtime
        from repro.serving import ModelRegistry
        state = runtime._CheckState()
        monkeypatch.setattr(runtime, "_state", state)
        registry = ModelRegistry(max_models=2)
        registry.register(small_model.model_spec())
        try:
            with make_server(registry, max_queue=1) as server:
                server.gate.clear()
                time.sleep(0.05)
                accepted = server.submit("small", volume)
                with pytest.raises(ServerOverloaded) as info:
                    server.submit("small", volume)
                assert info.value.retry_after > 0
                server.gate.set()
                assert accepted.result(timeout=30).size > 0
        finally:
            registry.close()
        assert [v.kind for v in state.violations] == []


class TestWorkConserving:
    def test_same_model_requests_run_on_two_workers(self, registry,
                                                    volume):
        with make_server(registry, num_workers=2) as server:
            server.gate.clear()
            time.sleep(0.05)
            original = server.registry.resolve
            lock = threading.Lock()
            threads = []

            def recording_resolve(*args, **kwargs):
                with lock:
                    threads.append(threading.current_thread().name)
                    first = len(threads) == 1
                if first:
                    time.sleep(0.2)  # hold one worker busy
                return original(*args, **kwargs)

            server.registry.resolve = recording_resolve
            try:
                requests = [server.submit("small", volume)
                            for _ in range(2)]
                server.gate.set()
                for request in requests:
                    request.result(timeout=30)
            finally:
                server.registry.resolve = original
        assert len(threads) == 2
        assert threads[0] != threads[1]


class TestRetryPolicy:
    def test_failed_request_retried(self, registry, volume):
        policy = RetryPolicy(max_retries=2, backoff_seconds=0.0)
        counter = metrics_registry().counter("serving.requests.retried")
        before = counter.value
        with make_server(registry, num_workers=1,
                         retry_policy=policy) as server:
            calls = {"n": 0}
            original = server.registry.warm

            def flaky_warm(name, tile):
                calls["n"] += 1
                if calls["n"] == 1:
                    raise OSError("transient")
                return original(name, tile)

            server.registry.warm = flaky_warm
            try:
                out = server.infer("small", volume)
            finally:
                server.registry.warm = original
        assert out.size > 0
        assert counter.value == before + 1

    def test_exhausted_retries_surface_error(self, registry, volume):
        policy = RetryPolicy(max_retries=1, backoff_seconds=0.0)
        with make_server(registry, num_workers=1,
                         retry_policy=policy) as server:
            original = server.registry.warm

            def always_broken(name, tile):
                raise OSError("permanent")

            server.registry.warm = always_broken
            try:
                request = server.submit("small", volume)
                with pytest.raises(OSError, match="permanent"):
                    request.result(timeout=30)
            finally:
                server.registry.warm = original

    @pytest.mark.parametrize("max_retries", [1, 2])
    def test_max_retries_reruns_the_body(self, registry, volume,
                                         max_retries):
        policy = RetryPolicy(max_retries=max_retries, backoff_seconds=0.0)
        counter = metrics_registry().counter("serving.requests.retried")
        before = counter.value
        runs = []
        with make_server(registry, num_workers=1,
                         retry_policy=policy) as server:
            original = server.registry.resolve

            def always_broken(*args, **kwargs):
                runs.append(1)
                raise OSError("permanent")

            server.registry.resolve = always_broken
            try:
                request = server.submit("small", volume)
                with pytest.raises(OSError, match="permanent"):
                    request.result(timeout=30)
            finally:
                server.registry.resolve = original
        assert len(runs) == 1 + max_retries
        assert counter.value == before + max_retries

    def test_retry_after_a_mid_sum_fault_serves_clean_bits(
            self, registry, small_model, volume):
        """The first attempt fails with one contribution in a two-input
        node's sum; the retry runs on the same twin and must answer a
        clean run's bits."""
        probe = WarmModel(small_model.model_spec(), volume.shape)
        k = mid_sum_occurrences(probe.network)[0]
        probe.close()
        policy = RetryPolicy(max_retries=1, backoff_seconds=0.0)
        counter = metrics_registry().counter("serving.requests.retried")
        with make_server(registry, num_workers=1,
                         retry_policy=policy) as server:
            clean = server.infer("small", volume)
            before = counter.value
            install_plan(FaultPlan.from_string(f"fail:fwd:{k}"))
            try:
                out = server.infer("small", volume)
            finally:
                clear_plan()
        assert counter.value == before + 1
        assert out.tobytes() == clean.tobytes()
