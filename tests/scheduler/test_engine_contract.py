"""The contract both engines meet: one bracket per task attempt.

Every case runs against ``SerialEngine`` (the ``T_1`` ruler) and a
two-worker ``TaskEngine``; what is specific to one engine (drain order
on the calling thread; worker threads, multi-error notes)
lives in ``test_engine.py`` and ``tests/resilience``.
"""

import threading
import time

import pytest

from repro.observability import MetricsRegistry, set_registry
from repro.observability.tracing import (
    Tracer,
    get_tracer,
    set_tracer,
)
from repro.resilience import (
    FaultPlan,
    FaultSpec,
    InjectedFault,
    RetryPolicy,
    clear_plan,
    install_plan,
)
from repro.scheduler import (
    LOWEST_PRIORITY,
    SerialEngine,
    Task,
    TaskEngine,
    TaskState,
)

FAST = RetryPolicy(max_retries=2, backoff_seconds=0.001,
                   max_backoff_seconds=0.01)


@pytest.fixture(autouse=True)
def no_global_plan():
    clear_plan()
    yield
    clear_plan()


@pytest.fixture
def registry():
    """A fresh metrics registry; engines built inside the test bind
    their counters to it."""
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture
def tracer():
    fresh = Tracer(enabled=True, process="test")
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


@pytest.fixture(params=["serial", "threaded"])
def make_engine(request, registry):
    """Engine factory of the parametrised kind (not yet started)."""
    def make(retry_policy=None):
        if request.param == "serial":
            return SerialEngine(retry_policy=retry_policy)
        return TaskEngine(num_workers=2, retry_policy=retry_policy)
    return make


def drive(engine, until=lambda: True):
    """Run what was submitted to the end and return the error that
    surfaced (``None`` when clean).  The serial engine drains on this
    thread; the threaded one is started, given until *until()* holds
    (or a worker failed) and shut down."""
    try:
        if isinstance(engine, SerialEngine):
            engine.run_until_idle()
        else:
            engine.start()
            deadline = time.time() + 10
            while not (until() or engine.errors):
                assert time.time() < deadline, "engine did not finish"
                time.sleep(0.002)
            engine.shutdown()
    except BaseException as error:
        return error
    return None


def fail_n_times(n, done=None):
    """A task body that raises on its first *n* calls then succeeds."""
    calls = []

    def body():
        calls.append(None)
        if len(calls) <= n:
            raise RuntimeError(f"transient #{len(calls)}")
        if done is not None:
            done.set()
    body.calls = calls
    return body


def metric(registry, name):
    return registry.snapshot().get(name, 0)


class TestSubmitSide:
    def test_submit_spawn_and_executed(self, make_engine):
        engine = make_engine()
        seen = []
        task = engine.submit(Task(lambda: seen.append("a"), name="fwd:a"))
        assert task.state is TaskState.QUEUED and task.queued_at
        spawned = engine.spawn(lambda: seen.append("b"), name="fwd:b")
        assert spawned.name == "fwd:b"
        assert drive(engine, lambda: len(seen) == 2) is None
        assert sorted(seen) == ["a", "b"]
        assert engine.executed == 2
        assert task.state is TaskState.COMPLETED

    def test_tasks_can_spawn_tasks(self, make_engine):
        engine = make_engine()
        order = []

        def parent():
            order.append("parent")
            engine.spawn(lambda: order.append("child"), name="fwd:child")

        engine.spawn(parent, name="fwd:parent")
        assert drive(engine, lambda: len(order) == 2) is None
        assert order == ["parent", "child"]

    def test_force_without_update_runs_inline(self, make_engine):
        engine = make_engine()
        ran = []
        engine.force(None, lambda: ran.append(1), name="do-fwd:e")
        assert ran == [1]

    def test_force_steals_queued_update(self, make_engine, registry):
        engine = make_engine()  # not started: the update stays QUEUED
        order = []
        upd = Task(lambda: order.append("upd"), priority=LOWEST_PRIORITY,
                   name="upd:e")
        engine.submit(upd)
        engine.force(upd, lambda: order.append("fwd"), name="do-fwd:e")
        assert order == ["upd", "fwd"]
        # The queue entry was invalidated: the engine runs nothing more
        # and a stolen task is the forcing task's work, not its own.
        assert drive(engine) is None
        assert order == ["upd", "fwd"]
        assert engine.executed == 0
        assert metric(registry, "engine.tasks{family=upd}") == 0


class TestAccounting:
    def test_completed_tasks_are_counted_per_family(self, make_engine,
                                                    registry):
        engine = make_engine()
        done = []
        for name in ("fwd:a", "fwd:b", "upd:a", ""):
            engine.spawn(lambda: (time.sleep(0.001), done.append(1)),
                         name=name)
        assert drive(engine, lambda: len(done) == 4) is None
        assert metric(registry, "engine.tasks{family=fwd}") == 2
        assert metric(registry, "engine.tasks{family=upd}") == 1
        assert metric(registry, "engine.tasks{family=anonymous}") == 1
        assert metric(registry, "engine.failed") == 0
        assert metric(registry, "engine.busy_seconds") >= 0.004
        assert engine.executed == 4

    def test_retry_then_succeed(self, make_engine, registry, tracer):
        """The seed's drift case: one task, third attempt succeeds."""
        backoff = 0.05
        engine = make_engine(RetryPolicy(max_retries=2,
                                         backoff_seconds=backoff,
                                         backoff_factor=1.0))
        done = threading.Event()
        body = fail_n_times(2, done)
        engine.spawn(body, name="fwd:x")
        assert drive(engine, done.is_set) is None
        assert len(body.calls) == 3
        assert metric(registry, "engine.tasks{family=fwd}") == 1
        assert metric(registry, "engine.tasks.retried{family=fwd}") == 2
        assert metric(registry, "engine.failed") == 0
        assert engine.executed == 1
        spans = sorted(tracer.spans(), key=lambda s: s.start)
        assert [s.status for s in spans] == ["retried", "retried", "ok"]
        # A retried attempt waits from its own re-queue, not from the
        # first submit: the previous attempt and the backoff sleep are
        # not queue wait.
        assert all(0.0 <= s.attrs["queue_wait"] < backoff for s in spans)
        assert spans[2].start - spans[0].start >= 2 * backoff

    def test_retries_exhausted(self, make_engine, registry):
        engine = make_engine(FAST)
        body = fail_n_times(3)
        engine.spawn(body, name="fwd:x")
        error = drive(engine, lambda: False)
        assert isinstance(error, RuntimeError)
        assert "transient #3" in str(error)
        assert len(body.calls) == 3
        assert metric(registry, "engine.tasks.retried{family=fwd}") == 2
        assert metric(registry, "engine.failed") == 1
        assert metric(registry, "engine.tasks{family=fwd}") == 0
        assert engine.executed == 0

    def test_no_policy_fails_on_first_error(self, make_engine, registry):
        engine = make_engine()
        body = fail_n_times(1)
        engine.spawn(body, name="fwd:x")
        error = drive(engine, lambda: False)
        assert "transient #1" in str(error)
        assert len(body.calls) == 1
        assert metric(registry, "engine.failed") == 1

    def test_completed_task_with_failed_attachment_is_not_retried(
            self, make_engine, registry):
        """A failing *attached* subtask must not re-run its COMPLETED
        parent: reset_for_retry refuses and the error is fatal."""
        engine = make_engine(FAST)
        upd_runs = []

        def upd_body():
            upd_runs.append(1)
            # upd is EXECUTING here, so the subtask attaches to it and
            # runs (and fails) right after this body returns.
            engine.force(upd, lambda: 1 / 0, name="do-fwd:e")

        upd = Task(upd_body, priority=LOWEST_PRIORITY, name="upd:e")
        engine.submit(upd)
        error = drive(engine, lambda: False)
        assert isinstance(error, ZeroDivisionError)
        assert upd_runs == [1]
        assert metric(registry, "engine.tasks.retried{family=upd}") == 0
        assert metric(registry, "engine.failed") == 1

    def test_fatal_failure_leaves_a_flight_note(self, make_engine):
        get_tracer().flight.clear()
        engine = make_engine()
        engine.spawn(lambda: 1 / 0, name="bwd:bad")
        assert isinstance(drive(engine, lambda: False), ZeroDivisionError)
        notes = [e for e in get_tracer().flight.events()
                 if e.get("kind") == "note"]
        assert len(notes) == 1
        assert notes[0]["message"] == "engine task failed fatally"
        assert notes[0]["attrs"]["task"] == "bwd:bad"
        assert notes[0]["attrs"]["error"].startswith("ZeroDivisionError")


class TestFaultInjection:
    def test_injected_failure_hits_its_family_and_is_retried(
            self, make_engine, registry):
        install_plan(FaultPlan([FaultSpec.parse("fail:fwd:1")]))
        engine = make_engine(FAST)
        ran = []
        engine.spawn(lambda: ran.append("upd"), priority=0, name="upd:e")
        engine.spawn(lambda: ran.append("fwd"), priority=1, name="fwd:e")
        assert drive(engine, lambda: len(ran) == 2) is None
        assert sorted(ran) == ["fwd", "upd"]
        assert metric(registry, "engine.tasks.retried{family=fwd}") == 1
        assert metric(registry, "engine.tasks.retried{family=upd}") == 0
        assert metric(registry, "resilience.faults_injected") == 1

    def test_injected_failure_without_policy_is_fatal(self, make_engine,
                                                      registry):
        install_plan(FaultPlan([FaultSpec.parse("fail:fwd:1")]))
        engine = make_engine()
        ran = []
        engine.spawn(lambda: ran.append(1), name="fwd:e")
        assert isinstance(drive(engine, lambda: False), InjectedFault)
        assert ran == []
        assert metric(registry, "engine.failed") == 1

    def test_injected_hang_delays_the_task(self, make_engine, registry):
        install_plan(FaultPlan([FaultSpec.parse("hang:bwd:1")],
                               hang_seconds=0.05))
        engine = make_engine()
        ran = []
        engine.spawn(lambda: ran.append(1), name="bwd:e")
        assert drive(engine, lambda: ran) is None
        assert ran == [1]
        assert metric(registry, "engine.busy_seconds") >= 0.05
        assert metric(registry, "engine.tasks{family=bwd}") == 1


class TestTaskSpans:
    def test_one_span_per_attempt(self, make_engine, tracer):
        engine = make_engine(FAST)
        done = []
        with tracer.span("root") as root:
            engine.spawn(lambda: done.append(1), name="fwd:a")
            engine.spawn(fail_n_times(1), priority=1, name="bwd:flaky")
            engine.spawn(lambda: done.append(1), priority=2, name="")
        assert drive(engine, lambda: len(done) == 2
                     and len(tracer) == 5) is None
        spans = [s for s in tracer.spans() if s.name != "root"]
        assert sorted((s.name, s.category, s.status) for s in spans) == [
            ("(anonymous)", "anonymous", "ok"),
            ("bwd:flaky", "bwd", "ok"),
            ("bwd:flaky", "bwd", "retried"),
            ("fwd:a", "fwd", "ok"),
        ]
        for span in spans:
            assert span.attrs["worker"] in (0, 1)
            assert span.attrs["queue_wait"] >= 0.0
            # the creating thread's trace, not the executing thread's
            assert span.trace_id == root.trace_id
            assert span.parent_id == root.span_id

    def test_fatal_attempt_span_says_error(self, make_engine, tracer):
        engine = make_engine()
        engine.spawn(lambda: 1 / 0, name="upd:bad")
        assert isinstance(drive(engine, lambda: False), ZeroDivisionError)
        (span,) = tracer.spans()
        assert span.status == "error"
        assert span.attrs["error"] == "ZeroDivisionError"
        assert "worker" in span.attrs and "queue_wait" in span.attrs

    def test_disabled_tracer_records_nothing(self, make_engine):
        off = Tracer(enabled=False)
        previous = set_tracer(off)
        try:
            engine = make_engine()
            done = []
            task = engine.spawn(lambda: done.append(1), name="fwd:a")
            assert task.span_context is None
            assert drive(engine, lambda: done) is None
            assert len(off) == 0
        finally:
            set_tracer(previous)
