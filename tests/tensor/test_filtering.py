"""Max-filtering tests: the paper's heap-based separable algorithm and
the ``max_filter_*`` wrappers against it (sparse windows, Jacobian
accumulation).  The kernel's own contract — winners, ties, NaN, tiles —
is ``test_window_max.py``."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.tensor import (
    max_filter_1d_heap,
    max_filter_backward,
    max_filter_forward,
    max_filter_separable,
)


class TestHeap1D:
    def test_matches_numpy(self, rng):
        a = rng.standard_normal(40)
        ref = sliding_window_view(a, 5).max(axis=1)
        np.testing.assert_array_equal(max_filter_1d_heap(a, 5), ref)

    def test_window_one_is_identity(self, rng):
        a = rng.standard_normal(10)
        np.testing.assert_array_equal(max_filter_1d_heap(a, 1), a)

    def test_window_equals_length(self, rng):
        a = rng.standard_normal(6)
        out = max_filter_1d_heap(a, 6)
        assert out.shape == (1,) and out[0] == a.max()

    def test_window_too_large_raises(self):
        with pytest.raises(ValueError):
            max_filter_1d_heap(np.zeros(3), 4)

    def test_window_zero_raises(self):
        with pytest.raises(ValueError):
            max_filter_1d_heap(np.zeros(3), 0)

    def test_with_duplicates(self):
        a = np.array([1.0, 1.0, 1.0, 0.0, 1.0])
        np.testing.assert_array_equal(max_filter_1d_heap(a, 2),
                                      [1.0, 1.0, 1.0, 1.0])

    @given(st.lists(st.floats(-100, 100), min_size=4, max_size=20),
           st.integers(1, 4))
    def test_property_matches_numpy(self, values, k):
        a = np.array(values)
        if k > len(a):
            return
        ref = sliding_window_view(a, k).max(axis=1)
        np.testing.assert_array_equal(max_filter_1d_heap(a, k), ref)


class TestForward:
    def test_matches_separable(self, rng):
        img = rng.standard_normal((9, 9, 9))
        out, _ = max_filter_forward(img, 3)
        np.testing.assert_array_equal(out, max_filter_separable(img, 3))

    def test_matches_brute_force(self, rng):
        img = rng.standard_normal((6, 6, 6))
        out, _ = max_filter_forward(img, 2)
        for z in range(5):
            for y in range(5):
                for x in range(5):
                    assert out[z, y, x] == img[z:z + 2, y:y + 2,
                                               x:x + 2].max()

    def test_sparse_window(self, rng):
        """Sparse max-filter takes taps at 0, s, ..., (k-1)s."""
        img = rng.standard_normal((9, 9, 9))
        out, _ = max_filter_forward(img, 2, 2)
        assert out.shape == (7, 7, 7)
        expected = np.maximum.reduce([
            img[dz:dz + 7, dy:dy + 7, dx:dx + 7]
            for dz in (0, 2) for dy in (0, 2) for dx in (0, 2)])
        np.testing.assert_array_equal(out, expected)

    def test_window_one_identity(self, rng):
        img = rng.standard_normal((4, 4, 4))
        out, _ = max_filter_forward(img, 1)
        np.testing.assert_array_equal(out, img)

    def test_separable_anisotropic(self, rng):
        img = rng.standard_normal((6, 7, 8))
        out, _ = max_filter_forward(img, (2, 1, 3))
        np.testing.assert_array_equal(out,
                                      max_filter_separable(img, (2, 1, 3)))


class TestBackward:
    def test_shape_restored(self, rng):
        img = rng.standard_normal((8, 8, 8))
        out, argmax = max_filter_forward(img, 3)
        grad = rng.standard_normal(out.shape)
        back = max_filter_backward(grad, argmax, img.shape)
        assert back.shape == img.shape

    def test_gradient_mass_preserved(self, rng):
        """Overlapping windows accumulate: total mass is conserved."""
        img = rng.standard_normal((8, 8, 8))
        out, argmax = max_filter_forward(img, 3)
        grad = rng.standard_normal(out.shape)
        back = max_filter_backward(grad, argmax, img.shape)
        assert np.isclose(back.sum(), grad.sum())

    def test_adjoint_identity(self, rng):
        img = rng.standard_normal((7, 7, 7))
        out, argmax = max_filter_forward(img, 2)
        grad = rng.standard_normal(out.shape)
        back = max_filter_backward(grad, argmax, img.shape)
        assert np.isclose(np.sum(out * grad), np.sum(img * back))

    def test_single_global_winner_accumulates_everything(self):
        """If one voxel dominates every window, it receives the full
        gradient sum."""
        img = np.zeros((5, 5, 5))
        img[2, 2, 2] = 100.0
        out, argmax = max_filter_forward(img, 3)
        grad = np.ones(out.shape)
        back = max_filter_backward(grad, argmax, img.shape)
        assert back[2, 2, 2] == grad.sum()
        assert np.count_nonzero(back) == 1

    def test_bad_argmax_shape_rejected(self, rng):
        img = rng.standard_normal((6, 6, 6))
        out, argmax = max_filter_forward(img, 2)
        with pytest.raises(ValueError):
            max_filter_backward(rng.standard_normal((4, 4, 4)), argmax,
                                img.shape)


@given(n=st.integers(4, 9), k=st.integers(1, 3), seed=st.integers(0, 999))
def test_property_forward_equals_separable(n, k, seed):
    if k > n:
        return
    rng = np.random.default_rng(seed)
    img = rng.standard_normal((n, n, n))
    out, _ = max_filter_forward(img, k)
    np.testing.assert_array_equal(out, max_filter_separable(img, k))
