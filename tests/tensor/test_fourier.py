"""Fourier helper tests: fast lengths and oversized-transform exactness."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tensor.conv_direct import (
    conv_backward_input,
    conv_kernel_gradient,
    correlate_valid,
)
from repro.tensor.conv_fft import FftConvPlan
from repro.tensor.fourier import (
    crop_head,
    forward_transform,
    inverse_transform,
    next_fast_len,
    rfft_shape,
)


class TestNextFastLen:
    @pytest.mark.parametrize("n,expected", [
        (1, 1), (2, 2), (3, 3), (4, 4), (5, 5), (6, 6),
        (7, 7), (11, 11), (13, 14), (17, 18), (23, 24),
        (97, 98), (101, 105), (127, 128), (241, 242),
    ])
    def test_known_values(self, n, expected):
        assert next_fast_len(n) == expected

    def test_invalid(self):
        with pytest.raises(ValueError):
            next_fast_len(0)

    @given(n=st.integers(1, 5000))
    def test_property_11smooth_and_minimal(self, n):
        """The result is 11-smooth and no smaller 11-smooth number lies
        in [n, m)."""
        def smooth(x):
            for p in (2, 3, 5, 7, 11):
                while x % p == 0:
                    x //= p
            return x == 1

        m = next_fast_len(n)
        assert m >= n and smooth(m)
        assert not any(smooth(c) for c in range(n, m))


class TestTransformHelpers:
    def test_rfft_shape(self):
        assert rfft_shape((4, 6, 9)) == (4, 6, 5)

    def test_pad_to(self, rng):
        """``forward_transform`` zero-pads at the high end of each axis
        to the transform shape."""
        a = rng.standard_normal((2, 3, 4))
        padded = np.zeros((4, 4, 4))
        padded[:2, :3, :4] = a
        spectrum = forward_transform(a, (4, 4, 4))
        assert spectrum.shape == rfft_shape((4, 4, 4))
        np.testing.assert_array_equal(spectrum, np.fft.rfftn(padded))
        back = inverse_transform(spectrum, (4, 4, 4))
        np.testing.assert_allclose(back[:2, :3, :4], a, atol=1e-12)
        np.testing.assert_allclose(back[3], 0.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(12, 12, 12), (7, 9, 10)])
    def test_stacked_transforms_are_per_image(self, rng, shape):
        """A stack transforms on its trailing axes, each image bit for
        bit as alone — what lets one walk serve a stack of tiles."""
        stack = rng.standard_normal((3,) + shape)
        spectra = forward_transform(stack, shape)
        back = inverse_transform(spectra, shape)
        for image, spectrum, image_back in zip(stack, spectra, back):
            alone = forward_transform(image, shape)
            assert spectrum.tobytes() == alone.tobytes()
            assert (image_back.tobytes()
                    == inverse_transform(alone, shape).tobytes())

    def test_roundtrip_transform(self, rng):
        a = rng.standard_normal((6, 7, 8))
        spec = forward_transform(a, (6, 7, 8))
        back = inverse_transform(spec, (6, 7, 8))
        np.testing.assert_allclose(back, a, atol=1e-12)

    def test_crops(self, rng):
        a = rng.standard_normal((6, 6, 6))
        np.testing.assert_array_equal(crop_head(a, (2, 3, 4)),
                                      a[:2, :3, :4])
        stack = rng.standard_normal((2, 6, 6, 6))
        np.testing.assert_array_equal(crop_head(stack, (2, 3, 4)),
                                      stack[:, :2, :3, :4])


class TestOversizedTransformExactness:
    """Any transform size >= the image size is exact for all three
    convolution passes (``docs/algorithms.md`` §3)."""

    @given(n=st.integers(5, 12), k=st.integers(1, 3),
           pad=st.integers(0, 5), seed=st.integers(0, 500))
    def test_property_all_passes(self, n, k, pad, seed):
        if k > n:
            return
        rng = np.random.default_rng(seed)
        img = rng.standard_normal((n, n, n))
        ker = rng.standard_normal((k, k, k))
        plan = FftConvPlan((n, n, n), (k, k, k))
        plan.transform_shape = (n + pad,) * 3  # enlarge the transform
        out = correlate_valid(img, ker)
        grad = rng.standard_normal(out.shape)
        np.testing.assert_allclose(plan.forward(img, ker), out, atol=1e-9)
        np.testing.assert_allclose(plan.backward(grad, ker),
                                   conv_backward_input(grad, ker),
                                   atol=1e-9)
        np.testing.assert_allclose(plan.update(img, grad),
                                   conv_kernel_gradient(img, grad),
                                   atol=1e-9)
