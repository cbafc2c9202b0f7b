"""FFT convolution tests — exactness against the direct method at the
layer-common transform size, plan spectra reuse, sparse kernels, and
the partial DFTs (kernel spectrum, kernel gradient) against the n³
``np.fft`` forms they replace.  The drawn-shape property checks of all
three passes live in the backend contract, ``test_backend_contract.py``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.tensor.conv_direct import convolve_full, dilate_kernel
from repro.tensor.conv_fft import _dft_rows
from repro.tensor.fourier import crop_head


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
        # Smooth or awkward (primes), no plan pads its transform.
        for shape in ((8, 9, 10), (13, 17, 19)):
            assert FftConvPlan(shape, (3, 3, 3)).transform_shape == shape

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


# -- the partial DFTs against the n³ np.fft forms ---------------------------

def full_kernel_spectrum(plan, kernel):
    """rfftn of the dilated kernel, zero-padded to the transform size."""
    return np.fft.rfftn(dilate_kernel(kernel, plan.sparsity),
                        s=plan.transform_shape, axes=(0, 1, 2))


def full_kernel_gradient(plan, image_spec, grad_spec):
    """irfftn of the lag spectrum, head-cropped to k_eff, subsampled."""
    lags = np.fft.irfftn(np.conj(grad_spec) * image_spec,
                         s=plan.transform_shape, axes=(0, 1, 2))
    s = plan.sparsity
    return crop_head(lags, plan.effective_kernel_shape)[::s[0], ::s[1], ::s[2]]


def assert_relative(got, want, rtol=1e-12):
    assert got.shape == want.shape and got.dtype == want.dtype
    assert np.abs(got - want).max() <= rtol * np.abs(want).max()


def check_partial_dfts(k, s, n, oversized, seed):
    rng = np.random.default_rng(seed)
    plan = FftConvPlan(n, k, s)
    if oversized:  # any transform >= the image is exact (algorithms.md §3)
        plan.transform_shape = tuple(d + 3 for d in plan.image_shape)
    img, ker = rng.standard_normal(n), rng.standard_normal(k)
    grad = rng.standard_normal(plan.output_shape)
    assert_relative(plan.kernel_spectrum(ker), full_kernel_spectrum(plan, ker))
    image_spec, grad_spec = plan.capture_update(img, grad)
    assert_relative(plan.update(img, grad),
                    full_kernel_gradient(plan, image_spec, grad_spec))


@st.composite
def partial_dft_case(draw):
    """Per axis: kernel 1-3, sparsity 1-4, and an image from the
    smallest that fits the dilated kernel to six voxels past it."""
    k = draw(st.tuples(*[st.integers(1, 3)] * 3))
    s = draw(st.tuples(*[st.integers(1, 4)] * 3))
    n = tuple((kd - 1) * sd + 1 + draw(st.integers(0, 6))
              for kd, sd in zip(k, s))
    return k, s, n


class TestPartialDfts:
    @given(case=partial_dft_case(), oversized=st.booleans(),
           seed=st.integers(0, 999))
    @settings(max_examples=60, deadline=None)
    def test_drawn_shapes_match_the_full_transforms(self, case, oversized,
                                                    seed):
        check_partial_dfts(*case, oversized, seed)

    @pytest.mark.parametrize("k,s,n", [
        ((1, 1, 1), 1, (1, 1, 1)),            # every axis of length 1
        ((1, 2, 1), 1, (2, 2, 2)),            # length 2: bin 1 is Nyquist
        ((3, 2, 1), (1, 3, 4), (4, 5, 1)),    # anisotropic, last axis 1
        ((2, 3, 3), (4, 1, 2), (6, 7, 8)),    # even last axis
        ((3, 3, 3), (2, 2, 2), (9, 10, 11)),  # odd last axis
        ((3, 3, 3), 4, (27, 27, 27)),         # the training net at s = 4
        ((3, 3, 3), 4, (19, 19, 19)),
    ])
    @pytest.mark.parametrize("oversized", [False, True])
    def test_edge_shapes_match_the_full_transforms(self, k, s, n, oversized):
        check_partial_dfts(k, s, n, oversized, seed=0)

    def test_rows_are_cached_and_read_only(self):
        key = ((9, 10, 11), (3, 2, 3), (2, 1, 4))
        forward, inverse = _dft_rows(*key)
        assert _dft_rows(*key)[0] is forward
        for rows in forward + inverse:
            assert not rows.flags.writeable
