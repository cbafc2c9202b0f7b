"""Retry policy and the retry edge a threaded engine alone has.  The
retry paths both engines share are in
``tests/scheduler/test_engine_contract.py``."""

import threading
import time

import pytest

from repro.observability import MetricsRegistry, set_registry
from repro.resilience import RetryPolicy, clear_plan
from repro.scheduler import TaskEngine


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


FAST = RetryPolicy(max_retries=2, backoff_seconds=0.001,
                   max_backoff_seconds=0.01)


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
