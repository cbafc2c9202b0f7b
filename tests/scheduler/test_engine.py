"""What is specific to one engine: worker threads, multi-error notes
and the closed queue for ``TaskEngine``; drain order on the calling
thread for ``SerialEngine``.  What both must do the same way is in
``test_engine_contract.py``."""

import threading

import pytest

from repro.scheduler import (
    LOWEST_PRIORITY,
    SerialEngine,
    Task,
    TaskEngine,
)


class TestTaskEngine:
    def test_many_tasks_all_run(self):
        count = 200
        seen = []
        lock = threading.Lock()
        remaining = threading.Semaphore(0)
        with TaskEngine(num_workers=4) as engine:
            for i in range(count):
                def body(i=i):
                    with lock:
                        seen.append(i)
                    remaining.release()

                engine.spawn(body, priority=i % 5)
            for _ in range(count):
                assert remaining.acquire(timeout=5)
        assert sorted(seen) == list(range(count))

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            TaskEngine(num_workers=0)

    def test_idle_seconds_accumulate_while_waiting(self):
        from repro.observability import MetricsRegistry, set_registry

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            done = threading.Event()
            with TaskEngine(num_workers=1) as engine:
                import time
                time.sleep(0.05)  # the worker blocks on the empty queue
                engine.spawn(done.set)
                assert done.wait(timeout=5)
        finally:
            set_registry(previous)
        assert fresh.snapshot()["engine.idle_seconds"] >= 0.04

    def test_force_through_engine(self):
        order = []
        done = threading.Event()
        with TaskEngine(num_workers=1) as engine:
            upd = Task(lambda: order.append("upd"),
                       priority=LOWEST_PRIORITY, name="upd")
            engine.submit(upd)

            def fwd_task():
                engine.force(upd, lambda: (order.append("fwd"), done.set()))

            engine.spawn(fwd_task, priority=0)
            assert done.wait(timeout=5)
        assert order == ["upd", "fwd"]


class TestMultiWorkerFailures:
    def _fail_both_workers(self):
        import time

        engine = TaskEngine(num_workers=2).start()
        barrier = threading.Barrier(2)

        def boom(i):
            barrier.wait(timeout=5)  # both workers inside a task body
            raise RuntimeError(f"worker failure {i}")

        engine.spawn(lambda: boom(0), name="fwd:a")
        engine.spawn(lambda: boom(1), name="fwd:b")
        deadline = time.time() + 5
        while len(engine.errors) < 2 and time.time() < deadline:
            time.sleep(0.01)
        return engine

    def test_errors_property_collects_every_failure(self):
        engine = self._fail_both_workers()
        errors = engine.errors
        assert len(errors) == 2
        assert {str(e) for e in errors} == {"worker failure 0",
                                           "worker failure 1"}
        with pytest.raises(RuntimeError):
            engine.shutdown()

    def test_shutdown_notes_secondary_errors(self):
        engine = self._fail_both_workers()
        with pytest.raises(RuntimeError) as excinfo:
            engine.shutdown()
        notes = getattr(excinfo.value, "__notes__", [])
        assert len(notes) == 1
        assert "additional worker error" in notes[0]
        assert "worker failure" in notes[0]

    def test_shutdown_raises_first_error_with_second_as_note(self):
        """Needs ``BaseException.add_note`` (Python >= 3.11, the
        declared floor): on 3.10 shutdown would die of AttributeError
        and mask the primary failure."""
        engine = self._fail_both_workers()
        first, second = engine.errors
        with pytest.raises(RuntimeError) as excinfo:
            engine.shutdown()
        assert excinfo.value is first
        assert excinfo.value.__notes__ == [
            "additional worker error (see TaskEngine.errors): "
            f"RuntimeError: {second}"]

    def test_shutdown_reraise_is_idempotent(self):
        engine = self._fail_both_workers()
        with pytest.raises(RuntimeError) as first:
            engine.shutdown()
        with pytest.raises(RuntimeError) as second:
            engine.shutdown()
        # Same primary exception, and its notes are not duplicated.
        assert second.value is first.value
        assert len(getattr(first.value, "__notes__", [])) == 1


class TestQueueClosedVsForce:
    def test_pending_force_survives_queue_close(self):
        """A QUEUED update whose queue closed underneath it can still be
        FORCEd: the steal works on the task's state machine, not the
        queue, so the update is not lost."""
        from repro.sync import QueueClosed

        engine = TaskEngine(num_workers=1)  # not started: deterministic
        order = []
        upd = Task(lambda: order.append("upd"),
                   priority=LOWEST_PRIORITY, name="upd:e")
        engine.submit(upd)
        engine.queue.close()
        with pytest.raises(QueueClosed):
            engine.spawn(lambda: None, name="fwd:late")
        engine.force(upd, lambda: order.append("sub"), name="do-fwd:e")
        assert order == ["upd", "sub"]

    def test_force_races_worker_failure_close(self):
        """A worker failure closes the queue while another worker is
        about to FORCE a pending update; the forced chain still runs."""
        import time

        started = threading.Event()
        order = []
        engine = TaskEngine(num_workers=2).start()
        upd = Task(lambda: order.append("upd"),
                   priority=LOWEST_PRIORITY, name="upd:e")
        engine.submit(upd)

        def fwd():
            started.set()
            deadline = time.time() + 5
            while not engine.errors and time.time() < deadline:
                time.sleep(0.005)
            engine.force(upd, lambda: order.append("sub"), name="do-fwd:e")

        def boom():
            assert started.wait(5)
            raise RuntimeError("fatal")

        engine.spawn(fwd, priority=0, name="fwd:e")
        engine.spawn(boom, priority=1, name="bwd:boom")
        with pytest.raises(RuntimeError, match="fatal"):
            engine.shutdown()
        assert order == ["upd", "sub"]


def _new_workers(before):
    """``znn-worker-*`` threads alive now that were not in *before*."""
    return [t for t in threading.enumerate()
            if t.name.startswith("znn-worker-") and t not in before]


class TestNoThreadOutlivesShutdown:
    """Every worker thread is joined by ``shutdown``, however its
    tasks ended."""

    def test_clean_run(self):
        before = set(threading.enumerate())
        done = threading.Event()
        engine = TaskEngine(num_workers=2).start()
        assert len(_new_workers(before)) == 2
        engine.spawn(done.set, name="fwd:a")
        assert done.wait(timeout=5)
        engine.shutdown()
        assert _new_workers(before) == []

    def test_failed_task(self):
        before = set(threading.enumerate())
        engine = TaskEngine(num_workers=2).start()
        engine.spawn(lambda: 1 / 0, name="fwd:a")
        with pytest.raises(ZeroDivisionError):
            engine.shutdown()
        assert _new_workers(before) == []

    def test_retried_task(self):
        from repro.resilience import RetryPolicy

        before = set(threading.enumerate())
        runs = []
        done = threading.Event()

        def flaky():
            runs.append(1)
            if len(runs) == 1:
                raise RuntimeError("transient")
            done.set()

        engine = TaskEngine(num_workers=2, retry_policy=RetryPolicy(
            max_retries=2, backoff_seconds=0.001)).start()
        engine.spawn(flaky, name="fwd:a")
        assert done.wait(timeout=5)
        engine.shutdown()
        assert runs == [1, 1]
        assert _new_workers(before) == []

    def test_network_close(self):
        import numpy as np

        from repro.core import Network
        from repro.graph import build_layered_network

        before = set(threading.enumerate())
        graph = build_layered_network("CT", width=1, kernel=2)
        net = Network(graph, input_shape=(6, 6, 6), seed=0, num_workers=2)
        assert len(_new_workers(before)) == 2
        rng = np.random.default_rng(0)
        net.train_step(rng.standard_normal((6, 6, 6)),
                       rng.standard_normal((5, 5, 5)))
        net.close()
        assert _new_workers(before) == []


class TestSerialEngine:
    def test_run_until_idle_executes_all(self):
        engine = SerialEngine()
        seen = []
        engine.spawn(lambda: seen.append(1))
        engine.spawn(lambda: seen.append(2))
        assert engine.run_until_idle() == 2
        assert sorted(seen) == [1, 2]

    def test_priority_order_respected(self):
        engine = SerialEngine()
        order = []
        engine.spawn(lambda: order.append("late"), priority=5)
        engine.spawn(lambda: order.append("early"), priority=1)
        engine.run_until_idle()
        assert order == ["early", "late"]

    def test_spawned_children_run_in_same_drain(self):
        engine = SerialEngine()
        order = []

        def parent():
            order.append("parent")
            engine.spawn(lambda: order.append("child"))

        engine.spawn(parent)
        engine.run_until_idle()
        assert order == ["parent", "child"]

    def test_context_manager_drains(self):
        seen = []
        with SerialEngine() as engine:
            engine.spawn(lambda: seen.append(1))
        assert seen == [1]
