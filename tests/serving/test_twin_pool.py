"""WarmModel's twin pool: concurrent callers, crossover, shared spectra,
closing under load."""

import sys
import threading
import time

import numpy as np
import pytest

import repro.serving.registry as registry_module
from repro.serving import ModelRegistry, WarmModel

TILE = (10, 10, 10)
#: 2 × 2 × 2 tiles of TILE for the (5, 5, 5)-fov small model.
VOLUME = (16, 16, 16)
TIMEOUT = 60


@pytest.fixture
def crossover(monkeypatch):
    """Put the twin crossover at TILE, so the small test model grows."""
    monkeypatch.setattr(registry_module, "TWIN_MIN_VOXELS", 1000)


@pytest.fixture
def runs(monkeypatch):
    """Wrap the pool's ``run_plan``: record the twin each run used and
    the peak number of runs inside it at once, and let a test hold
    every run at its start with ``hold``."""
    original = registry_module.run_plan

    class Runs:
        def __init__(self):
            self.lock = threading.Lock()
            self.inside = 0
            self.peak = 0
            self.networks = []
            self.hold = None  # a Barrier or Event every run waits on

        def wait_inside(self, count):
            deadline = time.monotonic() + TIMEOUT
            while self.inside < count:
                assert time.monotonic() < deadline
                time.sleep(0.001)

        def __call__(self, network, volume, plan, progress=None):
            with self.lock:
                self.inside += 1
                self.peak = max(self.peak, self.inside)
                self.networks.append(network)
            try:
                if self.hold is not None:
                    self.hold.wait(TIMEOUT)
                return original(network, volume, plan, progress=progress)
            finally:
                with self.lock:
                    self.inside -= 1

    wrapper = Runs()
    monkeypatch.setattr(registry_module, "run_plan", wrapper)
    return wrapper


def volumes(count, seed=5):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(VOLUME) for _ in range(count)]


def run_concurrently(warm, vols):
    """One thread per volume through ``warm.run``; replies in order."""
    replies = [None] * len(vols)
    errors = []

    def call(index):
        try:
            replies[index] = warm.run(vols[index])
        except Exception as exc:  # surfaced by the assert below
            errors.append(exc)

    threads = [threading.Thread(target=call, args=(k,))
               for k in range(len(vols))]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(TIMEOUT)
        assert not thread.is_alive()
    assert not errors, errors
    return replies


def distinct(networks):
    return {id(n): n for n in networks}


@pytest.mark.parametrize("mode", ["direct", "fft"])
def test_concurrent_callers_match_single_caller_bitwise(
        small_model, crossover, runs, mode):
    callers = 4
    vols = volumes(callers)
    single = WarmModel(small_model.model_spec(conv_mode=mode), TILE)
    expected = [single.run(v) for v in vols]
    single.close()
    runs.networks.clear()
    warm = WarmModel(small_model.model_spec(conv_mode=mode), TILE)
    runs.hold = threading.Barrier(callers)  # all four runs at once
    replies = run_concurrently(warm, vols)
    runs.hold = None
    assert runs.peak == callers
    assert len(distinct(runs.networks)) == callers
    for reply, want in zip(replies, expected):
        assert np.array_equal(reply, want)
    # Back-to-back callers reuse the pool; it never grows past the peak.
    for reply, want in zip(run_concurrently(warm, vols[:2]), expected):
        assert np.array_equal(reply, want)
    assert len(distinct(runs.networks)) == callers
    warm.close()


def test_pool_never_exceeds_peak_concurrent_callers(small_model, crossover,
                                                     runs):
    warm = WarmModel(small_model.model_spec(), TILE)
    run, lock, callers = warm.run, threading.Lock(), {"now": 0, "peak": 0}

    def counted(volume):  # a caller counts from entry to return
        with lock:
            callers["now"] += 1
            callers["peak"] = max(callers["peak"], callers["now"])
        try:
            return run(volume)
        finally:
            with lock:
                callers["now"] -= 1

    warm.run = counted
    vols = volumes(6)
    expected = [run(v) for v in vols]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # more callers than cores, switching often
    try:
        for burst in (1, 3, 2, 6, 1, 5):
            replies = run_concurrently(warm, vols[:burst])
            assert len(distinct(runs.networks)) <= callers["peak"]
            for reply, want in zip(replies, expected):
                assert np.array_equal(reply, want)
    finally:
        sys.setswitchinterval(interval)
    warm.close()


def test_tile_below_crossover_never_builds_a_second_twin(
        small_model, monkeypatch, runs):
    monkeypatch.setattr(registry_module, "TWIN_MIN_VOXELS", 1001)
    warm = WarmModel(small_model.model_spec(conv_mode="fft"), TILE)
    built = []
    original = warm._build_twin
    monkeypatch.setattr(warm, "_build_twin",
                        lambda first=None: built.append(1) or original(first))
    vols = volumes(4)
    runs.hold = threading.Event()  # the first run holds the only twin
    callers = [threading.Thread(target=warm.run, args=(v,)) for v in vols]
    for caller in callers:
        caller.start()
    runs.wait_inside(1)
    time.sleep(0.2)  # time enough to grow the pool, were it allowed to
    assert runs.inside == 1
    runs.hold.set()
    for caller in callers:
        caller.join(TIMEOUT)
        assert not caller.is_alive()
    assert built == []
    assert runs.peak == 1
    assert distinct(runs.networks) == {id(warm.network): warm.network}
    warm.close()


def test_twins_share_kernel_spectra_read_only(small_model, crossover, runs):
    warm = WarmModel(small_model.model_spec(conv_mode="fft"), TILE)
    runs.hold = threading.Barrier(2)
    run_concurrently(warm, volumes(2))
    first, second = distinct(runs.networks).values()
    assert warm.network in (first, second)
    conv_edges = [e.name for e in warm.network.edges.values()
                  if e.spec.kind == "conv"]
    assert conv_edges

    def must_not_compute():
        raise AssertionError("kernel spectrum recomputed")

    for name in conv_edges:
        mine = first.cache.get_or_compute("ker", name, must_not_compute)
        theirs = second.cache.get_or_compute("ker", name, must_not_compute)
        assert mine is theirs
        assert not mine.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            mine[0, 0, 0] = 0.0
    warm.close()


def test_close_lets_an_inflight_run_finish(small_model, crossover, runs):
    vol = volumes(1)[0]
    warm = WarmModel(small_model.model_spec(conv_mode="fft"), TILE)
    expected = warm.run(vol)
    closed = []
    original_close = warm.network.close
    warm.network.close = lambda: closed.append(1) or original_close()
    runs.hold = threading.Event()
    result = []
    worker = threading.Thread(target=lambda: result.append(warm.run(vol)))
    worker.start()
    runs.wait_inside(1)
    warm.close()  # the only twin is busy: it must stay open for now
    assert closed == []
    runs.hold.set()
    worker.join(TIMEOUT)
    assert not worker.is_alive()
    assert np.array_equal(result[0], expected)
    assert closed == [1]  # closed once its run returned
    runs.hold = None
    # A caller that resolved the model just before it closed still runs.
    assert np.array_equal(warm.run(vol), expected)


def test_eviction_lets_an_inflight_run_finish(small_model, crossover, runs):
    registry = ModelRegistry(max_models=1)
    registry.register(small_model.model_spec())
    vol = volumes(1)[0]
    warm = registry.warm("small", TILE)
    expected = warm.run(vol)
    runs.hold = threading.Event()
    result = []
    worker = threading.Thread(target=lambda: result.append(warm.run(vol)))
    worker.start()
    runs.wait_inside(1)
    assert registry.warm("small", (9, 9, 9)) is not warm  # evicts warm
    runs.hold.set()
    worker.join(TIMEOUT)
    assert not worker.is_alive()
    assert np.array_equal(result[0], expected)
    registry.close()
