"""Wait-free concurrent summation (Algorithm 4) tests — including
multi-threaded linearizability stress."""

import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sync import ConcurrentSum, NaiveLockedSum, OrderedSum

IMPLS = [ConcurrentSum, NaiveLockedSum]


@pytest.mark.parametrize("impl", IMPLS)
class TestSerialBehaviour:
    def test_single_contribution(self, impl):
        s = impl(1)
        assert s.add(np.full((2, 2, 2), 3.0)) is True
        np.testing.assert_array_equal(s.get(), np.full((2, 2, 2), 3.0))

    def test_three_contributions_sum(self, impl, rng):
        s = impl(3)
        arrays = [rng.standard_normal((3, 3, 3)) for _ in range(3)]
        expected = sum(a.copy() for a in arrays)
        flags = [s.add(a) for a in arrays]
        assert flags == [False, False, True]
        np.testing.assert_allclose(s.get(), expected, atol=1e-12)

    def test_get_before_complete_raises(self, impl):
        s = impl(2)
        s.add(np.zeros((1, 1, 1)))
        with pytest.raises(RuntimeError):
            s.get()

    def test_too_many_contributions_raise(self, impl):
        s = impl(1)
        s.add(np.zeros((1, 1, 1)))
        with pytest.raises(RuntimeError):
            s.add(np.zeros((1, 1, 1)))

    def test_complete_flag(self, impl):
        s = impl(2)
        assert not s.complete
        s.add(np.ones((1, 1, 1)))
        assert not s.complete
        s.add(np.ones((1, 1, 1)))
        assert s.complete

    def test_reset_allows_reuse(self, impl, rng):
        s = impl(2)
        s.add(np.ones((2, 2, 2)))
        s.add(np.ones((2, 2, 2)))
        s.reset()
        a = rng.standard_normal((2, 2, 2))
        b = rng.standard_normal((2, 2, 2))
        expected = a + b
        s.add(a)
        s.add(b)
        np.testing.assert_allclose(s.get(), expected, atol=1e-12)

    def test_reset_can_change_required(self, impl):
        s = impl(2)
        s.add(np.ones((1, 1, 1)))
        s.add(np.ones((1, 1, 1)))
        s.reset(required=3)
        assert s.required == 3

    def test_invalid_required_raises(self, impl):
        with pytest.raises(ValueError):
            impl(0)

    def test_complex_spectra(self, impl, rng):
        """FFT-mode nodes accumulate complex half-spectra."""
        s = impl(2)
        a = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        b = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        expected = a + b
        s.add(a)
        s.add(b)
        np.testing.assert_allclose(s.get(), expected, atol=1e-12)


@pytest.mark.parametrize("impl", [*IMPLS, OrderedSum])
class TestOneCallingConvention:
    """The §VII-B ablation calls every accumulator as
    ``add(value, index)``; each resets once per round."""

    def test_add_takes_the_contributor_index(self, impl, rng):
        s = impl(2)
        a = rng.standard_normal((2, 2, 2))
        b = rng.standard_normal((2, 2, 2))
        expected = a + b
        assert s.add(b, 1) is False
        assert s.add(a, 0) is True
        np.testing.assert_allclose(s.get(), expected, atol=1e-12)

    def test_reset_during_accumulation_raises(self, impl):
        s = impl(2)
        s.add(np.ones((1, 1, 1)), 0)
        with pytest.raises(RuntimeError, match="reset during accumulation"):
            s.reset()

    def test_reset_rejects_invalid_required(self, impl):
        with pytest.raises(ValueError, match="required must be >= 1"):
            impl(1).reset(required=0)


@pytest.mark.parametrize("impl", IMPLS)
@pytest.mark.parametrize("threads", [2, 4, 8])
def test_threaded_sum_is_exact(impl, threads, rng):
    """N threads each contributing a distinct array must produce the
    exact total, and exactly one thread must observe last=True."""
    required = threads * 3
    arrays = [rng.standard_normal((8, 8, 8)) for _ in range(required)]
    expected = np.zeros((8, 8, 8))
    for a in arrays:
        expected = expected + a
    s = impl(required)
    last_flags = []
    flag_lock = threading.Lock()
    barrier = threading.Barrier(threads)

    def worker(idx):
        barrier.wait()
        for j in range(3):
            flag = s.add(arrays[idx * 3 + j].copy())
            with flag_lock:
                last_flags.append(flag)

    ts = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
    for t in ts:
        t.start()
    for t in ts:
        t.join()
    assert sum(last_flags) == 1
    np.testing.assert_allclose(s.get(), expected, atol=1e-10)


def test_many_rounds_of_threaded_reuse(rng):
    """Reset + reuse across rounds under threading (the per-node
    accumulator lifecycle)."""
    s = ConcurrentSum(4)
    for _ in range(10):
        arrays = [rng.standard_normal((4, 4, 4)) for _ in range(4)]
        expected = sum(a.copy() for a in arrays)
        done = threading.Event()

        def worker(a):
            if s.add(a):
                done.set()

        ts = [threading.Thread(target=worker, args=(a,)) for a in arrays]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        assert done.is_set()
        np.testing.assert_allclose(s.get(), expected, atol=1e-10)
        s.reset()


@given(counts=st.integers(1, 7), seed=st.integers(0, 999))
def test_property_serial_sum_exact(counts, seed):
    rng = np.random.default_rng(seed)
    s = ConcurrentSum(counts)
    arrays = [rng.standard_normal((2, 3, 4)) for _ in range(counts)]
    expected = sum(a.copy() for a in arrays)
    flags = [s.add(a) for a in arrays]
    assert flags[-1] is True and not any(flags[:-1])
    np.testing.assert_allclose(s.get(), expected, atol=1e-12)
