"""Max-pooling forward/Jacobian tests (the ``max_pool_*`` wrappers; the
kernel's own contract is ``test_window_max.py``)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tensor import max_pool_backward, max_pool_forward


class TestForward:
    def test_shape(self, rng):
        pooled, argmax = max_pool_forward(rng.standard_normal((8, 8, 8)), 2)
        assert pooled.shape == (4, 4, 4)
        assert argmax.shape == (4, 4, 4)

    def test_values_are_block_maxima(self, rng):
        img = rng.standard_normal((6, 6, 6))
        pooled, _ = max_pool_forward(img, 2)
        for z in range(3):
            for y in range(3):
                for x in range(3):
                    block = img[2 * z:2 * z + 2, 2 * y:2 * y + 2,
                                2 * x:2 * x + 2]
                    assert pooled[z, y, x] == block.max()

    def test_anisotropic_window(self, rng):
        img = rng.standard_normal((4, 6, 8))
        pooled, _ = max_pool_forward(img, (2, 3, 4))
        assert pooled.shape == (2, 2, 2)

    def test_window_one_is_identity(self, rng):
        img = rng.standard_normal((3, 3, 3))
        pooled, _ = max_pool_forward(img, 1)
        np.testing.assert_array_equal(pooled, img)

    def test_indivisible_raises(self, rng):
        with pytest.raises(ValueError):
            max_pool_forward(rng.standard_normal((7, 8, 8)), 2)

    def test_2d_special_case(self, rng):
        img = rng.standard_normal((6, 6))
        pooled, _ = max_pool_forward(img, (1, 2, 2))
        assert pooled.shape == (1, 3, 3)


class TestBackward:
    def test_routes_to_winner_only(self, rng):
        img = rng.standard_normal((4, 4, 4))
        pooled, argmax = max_pool_forward(img, 2)
        grad = rng.standard_normal((2, 2, 2))
        back = max_pool_backward(grad, argmax, 2)
        assert back.shape == (4, 4, 4)
        # exactly one nonzero per block, at the argmax position
        assert np.count_nonzero(back) == 8
        # winners carry the gradient value
        for z in range(2):
            for y in range(2):
                for x in range(2):
                    block = back[2 * z:2 * z + 2, 2 * y:2 * y + 2,
                                 2 * x:2 * x + 2]
                    assert np.isclose(block.sum(), grad[z, y, x])

    def test_gradient_mass_preserved(self, rng):
        img = rng.standard_normal((6, 6, 6))
        _, argmax = max_pool_forward(img, 3)
        grad = rng.standard_normal((2, 2, 2))
        back = max_pool_backward(grad, argmax, 3)
        assert np.isclose(back.sum(), grad.sum())

    def test_adjoint_identity(self, rng):
        """<pool(I), G> == <I, pool_backward(G)> holds at the winning
        voxels (pooling is locally linear around the argmax)."""
        img = rng.standard_normal((6, 6, 6))
        pooled, argmax = max_pool_forward(img, 2)
        grad = rng.standard_normal((3, 3, 3))
        back = max_pool_backward(grad, argmax, 2)
        assert np.isclose(np.sum(pooled * grad), np.sum(img * back))

    def test_shape_mismatch_rejected(self, rng):
        _, argmax = max_pool_forward(rng.standard_normal((4, 4, 4)), 2)
        with pytest.raises(ValueError):
            max_pool_backward(rng.standard_normal((3, 3, 3)), argmax, 2)


@given(p=st.sampled_from([1, 2, 3]), m=st.integers(1, 3),
       seed=st.integers(0, 999))
def test_property_roundtrip_mass(p, m, seed):
    rng = np.random.default_rng(seed)
    n = p * m
    img = rng.standard_normal((n, n, n))
    pooled, argmax = max_pool_forward(img, p)
    grad = rng.standard_normal(pooled.shape)
    back = max_pool_backward(grad, argmax, p)
    assert back.shape == img.shape
    assert np.isclose(back.sum(), grad.sum())
