"""Retry policy, the serial engine's advisory timeout and the threaded
engine's watchdog.  The retry paths both engines share are in
``tests/scheduler/test_engine_contract.py``."""

import threading
import time

import pytest

from repro.observability import MetricsRegistry, set_registry
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    RetryPolicy,
    TaskTimeout,
    clear_plan,
    install_plan,
)
from repro.scheduler import SerialEngine, TaskEngine


@pytest.fixture(autouse=True)
def no_global_plan():
    clear_plan()
    yield
    clear_plan()


@pytest.fixture
def registry():
    """Fresh metrics registry installed around each test, so engines
    built inside the test bind their counters to it."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


def metric_total(registry, family):
    return sum(value for name, value in registry.snapshot().items()
               if name.partition("{")[0] == family)


class TestRetryPolicy:
    def test_backoff_grows_and_caps(self):
        policy = RetryPolicy(backoff_seconds=0.1, backoff_factor=2.0,
                             max_backoff_seconds=0.25)
        assert policy.backoff(0) == pytest.approx(0.1)
        assert policy.backoff(1) == pytest.approx(0.2)
        assert policy.backoff(2) == pytest.approx(0.25)  # capped

    def test_should_retry_respects_budget_and_types(self):
        policy = RetryPolicy(max_retries=2, retry_on=(ValueError,))
        assert policy.should_retry(ValueError(), 0)
        assert policy.should_retry(ValueError(), 1)
        assert not policy.should_retry(ValueError(), 2)
        assert not policy.should_retry(KeyError(), 0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_factor=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(timeout=0.0)


FAST = RetryPolicy(max_retries=2, backoff_seconds=0.001,
                   max_backoff_seconds=0.01)


class TestSerialAdvisoryTimeout:
    def test_advisory_timeout_counts_but_completes(self, registry):
        policy = RetryPolicy(timeout=0.005)
        engine = SerialEngine(retry_policy=policy)
        engine.spawn(lambda: time.sleep(0.02), name="fwd:slow")
        assert engine.run_until_idle() == 1
        assert metric_total(registry, "engine.tasks.timed_out") == 1


class TestWatchdogTimeout:
    def test_hung_task_reissued_and_run_completes(self, registry):
        install_plan(FaultPlan([FaultSpec.parse("hang:fwd:1")],
                               hang_seconds=5.0))
        policy = RetryPolicy(max_retries=2, backoff_seconds=0.001,
                             timeout=0.05)
        done = threading.Event()
        engine = TaskEngine(num_workers=1, retry_policy=policy).start()
        engine.spawn(done.set, name="fwd:e1")
        # The first attempt hangs in the injected fault; the watchdog
        # abandons it and a replacement worker runs the clone.
        assert done.wait(timeout=5)
        engine.shutdown()
        assert engine.errors == []
        assert metric_total(registry, "engine.tasks.timed_out") == 1
        assert metric_total(registry, "engine.tasks.retried") == 1
        # The abandoned attempt is neither counted nor retried by the
        # stuck worker; only the clone's completion counts.
        assert metric_total(registry, "engine.tasks") == 1
        assert metric_total(registry, "engine.failed") == 0

    def test_abandoned_attempt_wakes_up_to_nothing(self, registry):
        """When the stuck body finally returns, its worker must not
        count, retry or fail the task the clone already completed; its
        span says what happened, inside the creating thread's trace."""
        from repro.observability.tracing import Tracer, set_tracer

        install_plan(FaultPlan([FaultSpec.parse("hang:fwd:1")],
                               hang_seconds=0.2))
        policy = RetryPolicy(max_retries=2, backoff_seconds=0.001,
                             timeout=0.05)
        tracer = Tracer(enabled=True, process="test")
        previous = set_tracer(tracer)
        try:
            done = threading.Event()
            engine = TaskEngine(num_workers=1, retry_policy=policy).start()
            with tracer.span("root") as root:
                engine.spawn(done.set, name="fwd:e1")
            assert done.wait(timeout=5)
            deadline = time.time() + 5
            while len(tracer) < 3 and time.time() < deadline:
                time.sleep(0.01)  # root + clone + the woken original
            engine.shutdown()
        finally:
            set_tracer(previous)
        attempts = [s for s in tracer.spans() if s.name == "fwd:e1"]
        assert sorted(s.status for s in attempts) == ["abandoned", "ok"]
        assert {s.trace_id for s in attempts} == {root.trace_id}
        assert engine.errors == []
        assert metric_total(registry, "engine.tasks") == 1
        assert metric_total(registry, "engine.tasks.retried") == 1
        assert metric_total(registry, "engine.failed") == 0
        assert engine.executed == 1

    def test_timeout_without_budget_is_fatal(self, registry):
        install_plan(FaultPlan([FaultSpec.parse("hang:fwd:1x5")],
                               hang_seconds=5.0))
        policy = RetryPolicy(max_retries=0, backoff_seconds=0.001,
                             timeout=0.05)
        engine = TaskEngine(num_workers=1, retry_policy=policy).start()
        engine.spawn(lambda: None, name="fwd:e1")
        deadline = time.time() + 5
        while not engine.errors and time.time() < deadline:
            time.sleep(0.01)
        with pytest.raises(TaskTimeout):
            engine.shutdown()

    def test_shutdown_not_blocked_by_hung_worker(self, registry):
        install_plan(FaultPlan([FaultSpec.parse("hang:fwd:1x10")],
                               hang_seconds=2.0))
        policy = RetryPolicy(max_retries=0, timeout=0.05)
        engine = TaskEngine(num_workers=1, retry_policy=policy).start()
        engine.spawn(lambda: None, name="fwd:e1")
        deadline = time.time() + 5
        while not engine.errors and time.time() < deadline:
            time.sleep(0.01)
        t0 = time.perf_counter()
        with pytest.raises(TaskTimeout):
            engine.shutdown()
        # Hung workers are daemon threads joined only briefly.
        assert time.perf_counter() - t0 < 1.0


class TestAttachedSubtaskNotRetried:
    def test_failure_in_attached_subtask_is_fatal(self, registry):
        """A failing *attached* subtask must not re-run its COMPLETED
        parent: reset_for_retry refuses and the error propagates."""
        from repro.scheduler import LOWEST_PRIORITY, Task

        started = threading.Event()
        release = threading.Event()
        upd_runs = []

        def upd_body():
            upd_runs.append(1)
            started.set()
            release.wait(5)

        engine = TaskEngine(num_workers=2, retry_policy=FAST).start()
        upd = Task(upd_body, priority=LOWEST_PRIORITY, name="upd:e1")
        engine.submit(upd)

        def fwd():
            assert started.wait(5)
            # upd is EXECUTING: the failing subtask attaches to it and
            # runs on the updating worker once the body completes.
            engine.force(upd, lambda: 1 / 0, name="do-fwd:e1")
            release.set()

        engine.spawn(fwd, name="fwd:e1")
        deadline = time.time() + 5
        while not engine.errors and time.time() < deadline:
            time.sleep(0.01)
        with pytest.raises(ZeroDivisionError):
            engine.shutdown()
        assert upd_runs == [1]  # the parent body ran exactly once
        assert metric_total(registry, "engine.tasks.retried") == 0
