"""TransformCache (FFT memoization) tests."""

import threading

import numpy as np
import pytest

from repro.tensor import TransformCache


def make(value):
    return lambda: np.full((2, 2, 2), float(value))


class TestBasics:
    def test_computes_once_per_round(self):
        cache = TransformCache()
        calls = []

        def compute():
            calls.append(1)
            return np.zeros((2, 2, 2))

        cache.get_or_compute("img", "a", compute)
        cache.get_or_compute("img", "a", compute)
        assert len(calls) == 1
        assert cache.stats.computed == 1
        assert cache.stats.reused == 1

    def test_distinct_keys_distinct_entries(self):
        cache = TransformCache()
        a = cache.get_or_compute("img", "a", make(1))
        b = cache.get_or_compute("img", "b", make(2))
        assert a[0, 0, 0] == 1 and b[0, 0, 0] == 2
        assert len(cache) == 2

    def test_kind_disambiguates(self):
        cache = TransformCache()
        cache.get_or_compute("img", "a", make(1))
        g = cache.get_or_compute("grad", "a", make(2))
        assert g[0, 0, 0] == 2

    def test_next_round_evicts(self):
        cache = TransformCache()
        cache.get_or_compute("img", "a", make(1))
        cache.next_round()
        assert len(cache) == 0
        assert cache.stats.evicted == 1
        v = cache.get_or_compute("img", "a", make(3))
        assert v[0, 0, 0] == 3

    def test_round_counter(self):
        cache = TransformCache()
        assert cache.round == 0
        assert cache.next_round() == 1
        assert cache.round == 1


class TestDisabled:
    def test_always_computes(self):
        cache = TransformCache(enabled=False)
        calls = []

        def compute():
            calls.append(1)
            return np.zeros((1, 1, 1))

        cache.get_or_compute("img", "a", compute)
        cache.get_or_compute("img", "a", compute)
        assert len(calls) == 2
        assert cache.stats.computed == 2
        assert cache.stats.reused == 0
        assert len(cache) == 0


class TestStats:
    def test_reuse_fraction(self):
        cache = TransformCache()
        cache.get_or_compute("img", "a", make(1))
        cache.get_or_compute("img", "a", make(1))
        cache.get_or_compute("img", "a", make(1))
        assert cache.stats.reuse_fraction == pytest.approx(2 / 3)

    def test_empty_fraction_zero(self):
        assert TransformCache().stats.reuse_fraction == 0.0

    def test_snapshot_keys(self):
        snap = TransformCache().stats.snapshot()
        assert set(snap) == {"computed", "reused", "evicted",
                             "reuse_fraction"}


class TestThreadSafety:
    def test_concurrent_get_or_compute_single_value(self):
        """Racing threads may both compute, but all observers see one
        stored array (setdefault semantics)."""
        cache = TransformCache()
        results = []
        barrier = threading.Barrier(4)

        def worker(i):
            barrier.wait()
            v = cache.get_or_compute("img", "x", make(i))
            results.append(v)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        first = results[0]
        assert all(r is first for r in results)


class TestByteBoundedLru:
    """The byte cap (``max_bytes`` / ``REPRO_FFT_CACHE_BYTES``) is gone;
    what bounds a cache is checked, not configured: one round's spectra
    plus the pinned kernels of one network, and ``max_models`` networks
    per registry."""

    def arr(self, value, n=4):
        return lambda: np.full((n, n, n), float(value))

    def fill(self, cache, count=3):
        for i in range(count):
            cache.get_or_compute("img", i, self.arr(i))
        return cache

    def test_unbounded_by_default(self):
        with pytest.raises(TypeError):
            TransformCache(max_bytes=1024)
        cache = self.fill(TransformCache(), count=64)
        assert len(cache) == 64 and cache.nbytes == 64 * 512
        assert cache.stats.evicted == 0

    def test_env_var_zero_or_garbage_means_unbounded(self, monkeypatch):
        """Whatever the retired variable says, nothing reads it."""
        for raw in ("0", "lots", "64"):
            monkeypatch.setenv("REPRO_FFT_CACHE_BYTES", raw)
            cache = self.fill(TransformCache())
            assert len(cache) == 3 and cache.stats.evicted == 0

    def test_oversized_entry_still_stored(self):
        cache = TransformCache()
        v = cache.get_or_compute("img", "big", self.arr(1, n=64))
        assert v is cache.get_or_compute("img", "big", self.arr(1, n=64))
        assert cache.nbytes == v.nbytes

    def test_warm_caches_hold_pinned_kernels_only(self):
        """The bound the cap only asserted: after N forwards a warm
        twin's cache holds exactly its FFT conv edges' kernel spectra
        (everything else is evicted per round), and a registry of
        ``max_models=k`` holds at most k such caches."""
        from repro.core.edges import ConvEdge
        from repro.serving import ModelRegistry, ModelSpec

        spec = ModelSpec(name="m", spec="CTPCT", conv_mode="fft",
                         builder_kwargs={"width": 2, "kernel": 3,
                                         "window": 2, "transfer": "tanh"})
        registry = ModelRegistry(max_models=2)
        registry.register(spec)
        try:
            caches = set()
            for tile in (14, 16, 18):
                warm = registry.warm("m", (tile,) * 3)
                network = warm.network
                volume = np.random.default_rng(tile).standard_normal(
                    (tile,) * 3)
                held = set()
                for _ in range(3):
                    network.forward(volume)
                    held.add((len(network.cache), network.cache.nbytes))
                assert len(held) == 1  # steady: one round's spectra
                network.cache.next_round()  # what the next request does
                fft_edges = [e for e in network.edges.values()
                             if isinstance(e, ConvEdge)
                             and e.backend.spectral]
                assert fft_edges
                assert len(network.cache) == len(fft_edges)
                assert network.cache.pinned_kinds == {"ker"}
                caches.add(id(network.cache))
                assert len(registry._warm) <= 2
            assert len(caches) == 3  # three twins built, two kept
        finally:
            registry.close()


class TestPinnedKinds:
    def test_pinned_kind_survives_next_round(self):
        cache = TransformCache()
        cache.pin_kind("ker")
        calls = []

        def compute():
            calls.append(1)
            return np.zeros((2, 2, 2))

        cache.get_or_compute("ker", "conv1", compute)
        cache.get_or_compute("img", "a", lambda: np.ones((2, 2, 2)))
        cache.next_round()
        assert len(cache) == 1  # img evicted, ker kept
        cache.get_or_compute("ker", "conv1", compute)
        assert len(calls) == 1

    def test_unpinned_kind_is_round_scoped(self):
        cache = TransformCache()
        cache.pin_kind("ker")
        cache.get_or_compute("grad", "a", lambda: np.zeros((2, 2, 2)))
        cache.next_round()
        assert len(cache) == 0

    def test_bytes_tracked_across_round_with_pins(self):
        cache = TransformCache()
        cache.pin_kind("ker")
        cache.get_or_compute("ker", "k", lambda: np.zeros((4, 4, 4)))
        cache.get_or_compute("img", "a", lambda: np.zeros((4, 4, 4)))
        assert cache.nbytes == 2 * 512
        cache.next_round()
        assert cache.nbytes == 512


class TestGauges:
    """``fft_cache.bytes`` / ``fft_cache.entries`` sum every live cache
    of the process: each cache moves them by its own deltas."""

    @pytest.fixture
    def gauges(self):
        from repro.observability import MetricsRegistry, set_registry

        registry = MetricsRegistry()
        previous = set_registry(registry)
        try:
            yield lambda: (registry.gauge("fft_cache.bytes").value,
                           registry.gauge("fft_cache.entries").value)
        finally:
            set_registry(previous)

    def test_two_caches_add_up(self, gauges):
        a, b = TransformCache(), TransformCache()
        a.get_or_compute("img", "x", lambda: np.zeros(2000))
        assert gauges() == (16000, 1)
        b.next_round()  # another cache's round leaves a's entry counted
        assert a.nbytes == 16000 and gauges() == (16000, 1)
        b.pin_kind("ker")
        b.get_or_compute("ker", "k", lambda: np.zeros(1000))
        assert gauges() == (24000, 2)
        twin = TransformCache()
        twin.share_pinned(b)
        assert gauges() == (32000, 3)
        a.next_round()
        assert gauges() == (16000, 2)
        b.drop("ker", "k")
        assert gauges() == (8000, 1)
        del twin
        assert gauges() == (0, 0)

    def test_drop_evicts_one_entry(self):
        cache = TransformCache()
        cache.get_or_compute("img", "a", make(1))
        cache.get_or_compute("img", "b", make(2))
        cache.drop("img", "a")
        cache.drop("img", "missing")
        assert len(cache) == 1 and cache.nbytes == 64
        assert cache.get_or_compute("img", "a", make(3))[0, 0, 0] == 3
