"""FFT convolution tests — exactness against the direct method at the
layer-common transform size, plan spectra reuse, sparse kernels.  The
drawn-shape property checks of all three passes live in the backend
contract, ``test_backend_contract.py``."""

import numpy as np
import pytest

from repro.tensor import (
    FftConvPlan,
    conv_backward_input,
    conv_kernel_gradient,
    correlate_valid,
    fft_conv_backward_input,
    fft_conv_kernel_gradient,
    fft_convolve_full,
    fft_correlate_valid,
)
from repro.tensor.conv_direct import convolve_full


@pytest.fixture
def image(rng):
    return rng.standard_normal((8, 9, 10))


@pytest.fixture
def kernel(rng):
    return rng.standard_normal((3, 2, 4))


class TestOneShotFunctions:
    def test_correlate_valid_matches_direct(self, image, kernel):
        np.testing.assert_allclose(fft_correlate_valid(image, kernel),
                                   correlate_valid(image, kernel),
                                   atol=1e-10)

    def test_backward_matches_direct(self, rng, image, kernel):
        grad = rng.standard_normal(correlate_valid(image, kernel).shape)
        np.testing.assert_allclose(fft_conv_backward_input(grad, kernel),
                                   conv_backward_input(grad, kernel),
                                   atol=1e-10)

    def test_kernel_gradient_matches_direct(self, rng, image, kernel):
        grad = rng.standard_normal(correlate_valid(image, kernel).shape)
        np.testing.assert_allclose(fft_conv_kernel_gradient(image, grad),
                                   conv_kernel_gradient(image, grad),
                                   atol=1e-10)

    def test_convolve_full_matches_direct(self, rng):
        a = rng.standard_normal((5, 6, 7))
        k = rng.standard_normal((2, 3, 2))
        np.testing.assert_allclose(fft_convolve_full(a, k),
                                   convolve_full(a, k), atol=1e-10)

    @pytest.mark.parametrize("sparsity", [2, (1, 2, 3)])
    def test_sparse_all_three_passes(self, rng, sparsity):
        img = rng.standard_normal((11, 12, 13))
        ker = rng.standard_normal((3, 2, 2))
        out = correlate_valid(img, ker, sparsity)
        grad = rng.standard_normal(out.shape)
        np.testing.assert_allclose(
            fft_correlate_valid(img, ker, sparsity), out, atol=1e-10)
        np.testing.assert_allclose(
            fft_conv_backward_input(grad, ker, sparsity),
            conv_backward_input(grad, ker, sparsity), atol=1e-10)
        np.testing.assert_allclose(
            fft_conv_kernel_gradient(img, grad, sparsity),
            conv_kernel_gradient(img, grad, sparsity), atol=1e-10)


def counting_memo():
    """A round's memo, and the kinds it computed, in order."""
    spectra, computed = {}, []

    def memo(kind, compute):
        if kind not in spectra:
            computed.append(kind)
            spectra[kind] = compute()
        return spectra[kind]
    return memo, computed


class TestPlan:
    def test_transform_shape_is_input_shape(self):
        plan = FftConvPlan((8, 9, 10), (3, 3, 3))
        assert plan.transform_shape == (8, 9, 10)

    def test_output_shape(self):
        plan = FftConvPlan((8, 9, 10), (3, 3, 3), 2)
        assert plan.output_shape == (4, 5, 6)

    def test_kernel_spectrum_shared_by_fwd_and_bwd(self, rng):
        """The memoization contract: one kernel spectrum serves both
        the forward and the backward pass."""
        plan = FftConvPlan((8, 8, 8), (3, 3, 3))
        img = rng.standard_normal((8, 8, 8))
        ker = rng.standard_normal((3, 3, 3))
        grad = rng.standard_normal((6, 6, 6))
        memo, computed = counting_memo()
        fwd = plan.forward(img, ker, memo)
        bwd = plan.backward(grad, ker, memo)
        assert computed == ["img", "ker", "grad"]
        np.testing.assert_allclose(fwd, correlate_valid(img, ker), atol=1e-10)
        np.testing.assert_allclose(bwd, conv_backward_input(grad, ker),
                                   atol=1e-10)

    def test_image_spectrum_shared_by_fwd_and_update(self, rng):
        plan = FftConvPlan((8, 8, 8), (3, 3, 3))
        img = rng.standard_normal((8, 8, 8))
        ker = rng.standard_normal((3, 3, 3))
        grad = rng.standard_normal((6, 6, 6))
        memo, computed = counting_memo()
        plan.forward(img, ker, memo)
        np.testing.assert_allclose(plan.update(img, grad, memo),
                                   conv_kernel_gradient(img, grad),
                                   atol=1e-10)
        assert computed == ["img", "ker", "grad"]

    def test_spectral_sum_equals_spatial_sum(self, rng):
        """Accumulating spectra then inverting once (the per-node sum)
        equals summing spatial outputs."""
        plan = FftConvPlan((7, 7, 7), (2, 2, 2))
        imgs = [rng.standard_normal((7, 7, 7)) for _ in range(3)]
        kers = [rng.standard_normal((2, 2, 2)) for _ in range(3)]
        spec_sum = sum(
            plan.forward_product(plan.image_spectrum(i),
                                 plan.kernel_spectrum(k))
            for i, k in zip(imgs, kers))
        spatial_sum = sum(correlate_valid(i, k) for i, k in zip(imgs, kers))
        np.testing.assert_allclose(plan.finalize_forward(spec_sum),
                                   spatial_sum, atol=1e-10)

    def test_wrong_image_shape_rejected(self, rng):
        plan = FftConvPlan((8, 8, 8), (3, 3, 3))
        with pytest.raises(ValueError):
            plan.image_spectrum(rng.standard_normal((7, 8, 8)))

    def test_wrong_grad_shape_rejected(self, rng):
        plan = FftConvPlan((8, 8, 8), (3, 3, 3))
        with pytest.raises(ValueError):
            plan.grad_spectrum(rng.standard_normal((8, 8, 8)))

    def test_wrong_kernel_shape_rejected(self, rng):
        plan = FftConvPlan((8, 8, 8), (3, 3, 3))
        with pytest.raises(ValueError):
            plan.kernel_spectrum(rng.standard_normal((2, 2, 2)))
