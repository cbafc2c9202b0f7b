"""The fleet worker loop without a process spawn.

``serve_worker_main`` runs on a thread over a ``multiprocessing.Pipe``,
with volumes inside the messages: the real worker code and wire
protocol, tier-1 (and under ``REPRO_CHECK=1`` in the
concurrency-check lane).  The multi-process fleet around it lives in
``test_fleet_chaos.py`` (slow lane).
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.observability.tracing import get_tracer
from repro.serving.registry import WarmModel
from repro.serving.supervisor import WorkerConfig, serve_worker_main

SHAPE = (13, 13, 13)
TILE_VOXELS = 1000


class Worker:
    """One ``serve_worker_main`` on a thread, driven over its pipe."""

    def __init__(self, spec, threads=1):
        self.conn, child = multiprocessing.Pipe()
        self.outputs = {}
        self._process = get_tracer().process  # the worker relabels it
        config = WorkerConfig(specs=(spec,), threads=threads,
                              tile_voxels=TILE_VOXELS)
        self.thread = threading.Thread(
            target=serve_worker_main, args=(0, config, child),
            daemon=True)
        self.thread.start()
        assert self.recv() == ("ready", 0)

    def send_request(self, rid, volume, model="small", timeout=60.0):
        self.conn.send(("request", rid, model, volume, timeout))

    def recv(self, timeout=10.0):
        """The next reply, a result's dense output kept aside for
        :meth:`output` (so replies compare as plain tuples)."""
        assert self.conn.poll(timeout), "worker did not answer"
        reply = self.conn.recv()
        if reply[0] == "result":
            self.outputs[reply[1]] = reply[2]
            return reply[:2]
        return reply

    def output(self, rid):
        return self.outputs[rid]

    def close(self):
        try:
            self.conn.send(("stop",))
        except OSError:
            pass  # already stopped by the test
        self.thread.join(timeout=10.0)
        self.conn.close()
        get_tracer().set_process(self._process)


@pytest.fixture
def worker(small_model):
    workers = []

    def build(**kwargs):
        workers.append(Worker(small_model.model_spec(), **kwargs))
        return workers[-1]

    yield build
    for w in workers:
        w.close()


@pytest.fixture
def gate(monkeypatch):
    """Hold every ``WarmModel.run`` until the test sets the event, so
    requests stay in flight on the worker's threads."""
    release = threading.Event()
    started = threading.Semaphore(0)
    real_run = WarmModel.run

    def held_run(self, *args, **kwargs):
        started.release()
        assert release.wait(10.0)
        return real_run(self, *args, **kwargs)

    monkeypatch.setattr(WarmModel, "run", held_run)
    release.started = started
    yield release
    release.set()


def _reference(registry, volume):
    warm, plan = registry.resolve("small", volume.shape, TILE_VOXELS)
    return warm.run(volume, plan)


def test_full_window_on_one_thread_is_all_served(worker, registry):
    # The router keeps up to inflight_per_worker requests on a worker;
    # the worker runs all of them, it never answers "overloaded".
    w = worker(threads=1)
    rng = np.random.default_rng(5)
    volumes = [rng.standard_normal(SHAPE) for _ in range(4)]
    references = [_reference(registry, v) for v in volumes]
    window, total = 16, 64
    sent = 0
    replies = []
    while sent < window:
        w.send_request(sent, volumes[sent % 4])
        sent += 1
    while len(replies) < total:
        replies.append(w.recv())
        if sent < total:
            w.send_request(sent, volumes[sent % 4])
            sent += 1
    assert sorted(replies) == [("result", rid) for rid in range(total)]
    for rid in range(total):
        assert np.array_equal(w.output(rid), references[rid % 4])


def test_deadline_is_checked_when_a_thread_picks_the_request_up(
        worker, gate):
    w = worker(threads=1)
    volume = np.random.default_rng(6).standard_normal(SHAPE)
    w.send_request(1, volume)
    assert gate.started.acquire(timeout=10.0)  # the one thread is busy
    w.send_request(2, volume, timeout=0.05)
    time.sleep(0.1)  # request 2's deadline passes while it waits
    gate.set()
    replies = {w.recv()[:3] for _ in range(2)}
    assert replies == {("result", 1), ("error", 2, "deadline")}


def test_unknown_model_is_answered_not_fatal(worker, registry):
    w = worker()
    volume = np.random.default_rng(7).standard_normal(SHAPE)
    w.send_request(1, volume, model="nope")
    assert w.recv()[:3] == ("error", 1, "unknown-model")
    w.send_request(2, volume)
    assert w.recv() == ("result", 2)
    assert np.array_equal(w.output(2), _reference(registry, volume))


def test_ping_is_answered_while_a_request_runs(worker, gate):
    w = worker()
    w.send_request(1, np.random.default_rng(8).standard_normal(SHAPE))
    assert gate.started.acquire(timeout=10.0)
    w.conn.send(("ping", 41))
    assert w.recv() == ("pong", 41)
    gate.set()
    assert w.recv() == ("result", 1)


def test_stop_lets_in_flight_requests_finish(worker, registry, gate):
    w = worker(threads=1)
    volume = np.random.default_rng(9).standard_normal(SHAPE)
    w.send_request(1, volume)
    w.send_request(2, volume)
    assert gate.started.acquire(timeout=10.0)
    w.conn.send(("stop",))
    time.sleep(0.05)  # the main loop reads the stop while 1 runs
    gate.set()
    assert sorted(w.recv() for _ in range(2)) == [("result", 1),
                                                  ("result", 2)]
    w.thread.join(timeout=10.0)
    assert not w.thread.is_alive()
    with pytest.raises(EOFError):
        w.conn.recv()
    reference = _reference(registry, volume)
    assert np.array_equal(w.output(1), reference)
    assert np.array_equal(w.output(2), reference)
