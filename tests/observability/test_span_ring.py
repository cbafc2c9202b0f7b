"""The span ring under concurrent recording: a store appends without
the tracer's lock, yet the recorded and dropped counts stay exact."""

import sys
import threading

import pytest

from repro.observability.metrics import MetricsRegistry, set_registry
from repro.observability.tracing import Tracer

THREADS = 4
SPANS = 500  # per thread


@pytest.fixture(autouse=True)
def frequent_thread_switches():
    """Switch threads every microsecond, so stores interleave with each
    other and with the reader inside every few bytecodes."""
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(previous)


def record_concurrently(tracer, reader=None):
    """Each thread opens and closes SPANS spans; *reader*, when given,
    runs on its own thread until the writers finish."""
    start = threading.Barrier(THREADS + (reader is not None), timeout=30)
    done = threading.Event()

    def write():
        start.wait()
        for _ in range(SPANS):
            with tracer.span("s"):
                with tracer.span("child"):
                    pass

    threads = [threading.Thread(target=write) for _ in range(THREADS)]
    if reader is not None:
        threads.append(threading.Thread(
            target=lambda: (start.wait(), reader(done))))
    for thread in threads:
        thread.start()
    for thread in threads[:THREADS]:
        thread.join(timeout=30)
    done.set()
    for thread in threads[THREADS:]:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)


def counters():
    registry = MetricsRegistry()
    return registry, set_registry(registry)


def test_eviction_is_counted_exactly_under_concurrent_stores():
    registry, previous = counters()
    try:
        tracer = Tracer(enabled=True, process="test", max_spans=50)
        record_concurrently(tracer)
        total = THREADS * SPANS * 2
        assert len(tracer) == 50
        assert tracer.dropped == total - 50
        assert registry.counter("tracing.spans").value == total
        assert registry.counter("tracing.dropped").value == total - 50
    finally:
        set_registry(previous)


def test_drains_racing_stores_lose_no_record():
    registry, previous = counters()
    drained = []

    def drain_until(done):
        while not done.is_set():
            drained.extend(tracer.drain())
            len(tracer)  # folds the counts in mid-run as well

    try:
        tracer = Tracer(enabled=True, process="test")
        record_concurrently(tracer, reader=drain_until)
        drained.extend(tracer.drain())
        total = THREADS * SPANS * 2
        assert len(drained) == total and tracer.dropped == 0
        assert len({d["span_id"] for d in drained}) == total
        len(tracer)
        assert registry.counter("tracing.spans").value == total
    finally:
        set_registry(previous)
