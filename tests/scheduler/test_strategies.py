"""Alternative scheduling strategies (Section X) tests."""

import threading

import numpy as np
import pytest

from repro.scheduler import (
    FifoScheduler,
    LifoScheduler,
    SerialEngine,
    TaskEngine,
    WorkStealingScheduler,
    make_scheduler,
)
from repro.sync import QueueClosed


class TestFactory:
    @pytest.mark.parametrize("name", ["priority", "fifo", "lifo",
                                      "work-stealing"])
    def test_known_names(self, name):
        assert make_scheduler(name, num_workers=2) is not None

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_scheduler("round-robin")


class TestFifo:
    def test_order(self):
        q = FifoScheduler()
        for i in range(4):
            q.push(10 - i, i)  # priorities deliberately misleading
        assert [q.pop(block=False)[1] for _ in range(4)] == [0, 1, 2, 3]

    def test_invalid_skipped(self):
        q = FifoScheduler()
        q.push(0, "dead", is_valid=lambda: False)
        q.push(0, "live")
        assert q.pop(block=False)[1] == "live"

    def test_close_raises_for_popper(self):
        q = FifoScheduler()
        q.close()
        with pytest.raises(QueueClosed):
            q.pop(block=False)


class TestLifo:
    def test_order(self):
        q = LifoScheduler()
        for i in range(4):
            q.push(0, i)
        assert [q.pop(block=False)[1] for _ in range(4)] == [3, 2, 1, 0]


class TestWorkStealing:
    def test_local_lifo(self):
        q = WorkStealingScheduler(num_workers=2)
        q.push(0, "a")
        q.push(0, "b")
        # same thread owns the deque: LIFO
        assert q.pop(block=False)[1] == "b"
        assert q.pop(block=False)[1] == "a"

    def test_steal_from_other_deque(self):
        q = WorkStealingScheduler(num_workers=2)
        q.push(0, "victim-work")  # lands on this thread's deque

        stolen = []

        def thief():
            stolen.append(q.pop(block=False)[1])

        t = threading.Thread(target=thief)
        t.start()
        t.join()
        assert stolen == ["victim-work"]

    def test_steals_oldest_first(self):
        q = WorkStealingScheduler(num_workers=2)
        q.push(0, "old")
        q.push(0, "new")

        stolen = []

        def thief():
            stolen.append(q.pop(block=False)[1])

        t = threading.Thread(target=thief)
        t.start()
        t.join()
        assert stolen == ["old"]  # FIFO end for thieves

    def test_len_counts_all_deques(self):
        q = WorkStealingScheduler(num_workers=3)
        for i in range(5):
            q.push(0, i)
        assert len(q) == 5

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            WorkStealingScheduler(num_workers=0)


@pytest.mark.parametrize("name", ["priority", "fifo", "lifo",
                                  "work-stealing"])
class TestEnginesWithEveryStrategy:
    """Every strategy must run a full task cascade to completion in
    both the serial and the threaded engine."""

    def test_serial_engine(self, name):
        engine = SerialEngine(scheduler=make_scheduler(name, 1))
        seen = []

        def parent():
            seen.append("p")
            for i in range(3):
                engine.spawn(lambda i=i: seen.append(i))

        engine.spawn(parent)
        engine.run_until_idle()
        assert sorted(map(str, seen)) == ["0", "1", "2", "p"]

    def test_threaded_engine(self, name):
        done = threading.Semaphore(0)
        with TaskEngine(num_workers=3,
                        scheduler=make_scheduler(name, 3)) as engine:
            for _ in range(30):
                engine.spawn(done.release, priority=1)
            for _ in range(30):
                assert done.acquire(timeout=5)


def test_all_policies_train_to_the_same_result():
    """Section X: the ready-queue policy changes performance, never
    the result — every strategy trains the live engine to the same
    losses."""
    from repro.core import SGD, Network
    from repro.graph import build_layered_network

    x = np.random.default_rng(0).standard_normal((12, 12, 12))

    def losses(scheduler):
        graph = build_layered_network("CTMCT", width=2, kernel=2, window=2)
        with Network(graph, input_shape=(12, 12, 12), seed=3,
                     num_workers=2, scheduler=scheduler,
                     optimizer=SGD(learning_rate=0.01)) as net:
            targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
            return [net.train_step(x, targets) for _ in range(2)]

    reference = losses("priority")
    for scheduler in ("fifo", "lifo", "work-stealing"):
        np.testing.assert_allclose(losses(scheduler), reference, atol=1e-8)
