"""Direct convolution tests — correctness against scipy and brute force,
sparse/dilated behaviour, gradient identities."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.signal import correlate as sp_correlate
from scipy.signal import fftconvolve as sp_fftconvolve

from repro.tensor import (
    conv_backward_input,
    conv_kernel_gradient,
    convolve_full,
    convolve_valid,
    correlate_full,
    correlate_valid,
    dilate_kernel,
    flip3,
)
from repro.tensor.backends import registry
from repro.tensor.conv_direct import tap_views


@pytest.fixture
def image(rng):
    return rng.standard_normal((8, 9, 10))


@pytest.fixture
def kernel(rng):
    return rng.standard_normal((3, 2, 4))


class TestFlipAndDilate:
    def test_flip_is_involution(self, kernel):
        assert np.array_equal(flip3(flip3(kernel)), kernel)

    def test_flip_reverses_all_axes(self):
        k = np.arange(8.0).reshape(2, 2, 2)
        assert flip3(k)[0, 0, 0] == k[1, 1, 1]

    def test_dilate_identity_at_sparsity_one(self, kernel):
        assert np.array_equal(dilate_kernel(kernel, 1), kernel)

    def test_dilate_shape(self, kernel):
        d = dilate_kernel(kernel, 2)
        assert d.shape == (5, 3, 7)

    def test_dilate_preserves_taps(self, kernel):
        d = dilate_kernel(kernel, 3)
        assert np.array_equal(d[::3, ::3, ::3], kernel)

    def test_dilate_zeros_between_taps(self, kernel):
        d = dilate_kernel(kernel, 2)
        assert d[1, 0, 0] == 0.0 and d[0, 1, 0] == 0.0


class TestCorrelateValid:
    def test_matches_scipy(self, image, kernel):
        ours = correlate_valid(image, kernel)
        ref = sp_correlate(image, kernel, mode="valid")
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_output_shape(self, image, kernel):
        assert correlate_valid(image, kernel).shape == (6, 8, 7)

    def test_identity_kernel(self, image):
        one = np.ones((1, 1, 1))
        np.testing.assert_allclose(correlate_valid(image, one), image)

    def test_brute_force_single_voxel(self, rng):
        img = rng.standard_normal((3, 3, 3))
        ker = rng.standard_normal((3, 3, 3))
        out = correlate_valid(img, ker)
        assert out.shape == (1, 1, 1)
        assert np.isclose(out[0, 0, 0], np.sum(img * ker))

    def test_sparse_equals_dilated_dense(self, image, kernel):
        ours = correlate_valid(image, kernel, 2)
        ref = correlate_valid(image, dilate_kernel(kernel, 2))
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_anisotropic_sparsity(self, rng):
        img = rng.standard_normal((9, 9, 9))
        ker = rng.standard_normal((2, 2, 2))
        ours = correlate_valid(img, ker, (1, 2, 3))
        ref = correlate_valid(img, dilate_kernel(ker, (1, 2, 3)))
        np.testing.assert_allclose(ours, ref, atol=1e-12)

    def test_2d_input_promoted(self, rng):
        img = rng.standard_normal((5, 5))
        ker = rng.standard_normal((2, 2))
        out = correlate_valid(img, ker)
        assert out.shape == (1, 4, 4)

    def test_kernel_larger_than_image_raises(self, rng):
        with pytest.raises(ValueError):
            correlate_valid(rng.standard_normal((3, 3, 3)),
                            rng.standard_normal((4, 4, 4)))

    def test_linearity_in_image(self, image, kernel):
        a = correlate_valid(image, kernel)
        b = correlate_valid(2.0 * image, kernel)
        np.testing.assert_allclose(b, 2.0 * a, atol=1e-12)


class TestConvolveAndFull:
    def test_convolve_valid_is_flipped_correlation(self, image, kernel):
        np.testing.assert_allclose(convolve_valid(image, kernel),
                                   correlate_valid(image, flip3(kernel)),
                                   atol=1e-12)

    def test_convolve_full_matches_scipy(self, image, kernel):
        ref = sp_fftconvolve(image, kernel, mode="full")
        np.testing.assert_allclose(convolve_full(image, kernel), ref,
                                   atol=1e-10)

    def test_correlate_full_matches_scipy(self, image, kernel):
        ref = sp_correlate(image, kernel, mode="full")
        np.testing.assert_allclose(correlate_full(image, kernel), ref,
                                   atol=1e-10)

    def test_full_shape(self, image, kernel):
        assert convolve_full(image, kernel).shape == (10, 10, 13)

    def test_full_sparse_shape(self, image, kernel):
        assert convolve_full(image, kernel, 2).shape == (12, 11, 16)

    def test_commutativity_of_full_convolution(self, rng):
        a = rng.standard_normal((4, 4, 4))
        b = rng.standard_normal((3, 3, 3))
        np.testing.assert_allclose(convolve_full(a, b), convolve_full(b, a),
                                   atol=1e-12)


class TestGradients:
    """The backward ops must be the true adjoints of the forward op:
    <corr(I,K), dO> == <I, bwd(dO,K)> == <K, kgrad(I,dO)>."""

    @pytest.mark.parametrize("sparsity", [1, 2, (1, 2, 3)])
    def test_backward_input_is_adjoint(self, rng, sparsity):
        img = rng.standard_normal((9, 10, 11))
        ker = rng.standard_normal((2, 3, 2))
        out = correlate_valid(img, ker, sparsity)
        grad = rng.standard_normal(out.shape)
        lhs = np.sum(out * grad)
        rhs = np.sum(img * conv_backward_input(grad, ker, sparsity))
        assert np.isclose(lhs, rhs)

    @pytest.mark.parametrize("sparsity", [1, 2, (1, 2, 3)])
    def test_kernel_gradient_is_adjoint(self, rng, sparsity):
        img = rng.standard_normal((9, 10, 11))
        ker = rng.standard_normal((2, 3, 2))
        out = correlate_valid(img, ker, sparsity)
        grad = rng.standard_normal(out.shape)
        lhs = np.sum(out * grad)
        rhs = np.sum(ker * conv_kernel_gradient(img, grad, sparsity))
        assert np.isclose(lhs, rhs)

    def test_kernel_gradient_shape(self, rng):
        img = rng.standard_normal((8, 8, 8))
        grad = rng.standard_normal((6, 6, 6))
        assert conv_kernel_gradient(img, grad).shape == (3, 3, 3)

    def test_kernel_gradient_shape_sparse(self, rng):
        img = rng.standard_normal((9, 9, 9))
        grad = rng.standard_normal((5, 5, 5))  # eff kernel 5 = (3-1)*2+1
        assert conv_kernel_gradient(img, grad, 2).shape == (3, 3, 3)

    def test_numeric_kernel_gradient(self, rng):
        img = rng.standard_normal((6, 6, 6))
        ker = rng.standard_normal((2, 2, 2))
        grad = rng.standard_normal((5, 5, 5))
        analytic = conv_kernel_gradient(img, grad)
        eps = 1e-6
        for idx in [(0, 0, 0), (1, 1, 1), (0, 1, 0)]:
            k2 = ker.copy()
            k2[idx] += eps
            numeric = np.sum(
                (correlate_valid(img, k2) - correlate_valid(img, ker))
                * grad) / eps
            assert np.isclose(analytic[idx], numeric, atol=1e-4)

    def test_backward_input_shape_restores(self, rng):
        img = rng.standard_normal((10, 10, 10))
        ker = rng.standard_normal((3, 3, 3))
        out = correlate_valid(img, ker, 2)
        back = conv_backward_input(rng.standard_normal(out.shape), ker, 2)
        assert back.shape == img.shape


def signed_zeros(rng, shape):
    """Normal draws with +0.0 and -0.0 sprinkled in."""
    a = rng.standard_normal(shape)
    a[rng.random(shape) < 0.3] = 0.0
    a[rng.random(shape) < 0.2] = -0.0
    return a


class TestTapWalkPasses:
    """Backward and kernel gradient on the tap walk: the scatter-form
    backward is the pad-then-correlate form bit for bit; the per-tap
    kernel gradient stays within a summation-error budget of an
    extended-precision reference, and its bits depend on nothing but
    the operands."""

    @staticmethod
    def pad_then_correlate(grad, kernel, sparsity):
        """The full convolution written the long way round."""
        s = (sparsity,) * 3 if isinstance(sparsity, int) else sparsity
        reach = [((k - 1) * sd,) * 2 for k, sd in zip(kernel.shape, s)]
        return correlate_valid(np.pad(grad, reach), flip3(kernel), s)

    @pytest.mark.parametrize("sparsity", [1, 2, 4, (1, 2, 3)])
    @pytest.mark.parametrize("kernel_shape",
                             [(3, 3, 3), (2, 3, 1), (1, 1, 4), (1, 1, 1)])
    @pytest.mark.parametrize("zeros", [False, True])
    def test_backward_equals_pad_then_correlate_bitwise(
            self, rng, sparsity, kernel_shape, zeros):
        draw = signed_zeros if zeros else (
            lambda r, shape: r.standard_normal(shape))
        grad = draw(rng, (5, 6, 7))
        ker = draw(rng, kernel_shape)
        ours = conv_backward_input(grad, ker, sparsity)
        ref = self.pad_then_correlate(grad, ker, sparsity)
        assert ours.shape == ref.shape
        assert ours.tobytes() == ref.tobytes()  # -0.0 is not +0.0

    def test_backward_of_all_negative_zero_is_positive_zero(self):
        """The running sum starts at +0.0 and can never become -0.0."""
        back = conv_backward_input(np.full((3, 3, 3), -0.0),
                                   np.ones((2, 2, 2)))
        assert not np.signbit(back).any()

    @staticmethod
    def longdouble_kernel_gradient(image, grad, sparsity):
        """(dK, sum of |terms|) per tap, in extended precision."""
        img, go = image.astype(np.longdouble), grad.astype(np.longdouble)
        k = tuple((n - m) // s + 1
                  for n, m, s in zip(img.shape, go.shape, sparsity))
        exact, scale = np.empty(k, np.longdouble), np.empty(k, np.longdouble)
        for u in np.ndindex(k):
            terms = img[tuple(slice(ud * s, ud * s + m) for ud, s, m
                              in zip(u, sparsity, go.shape))] * go
            exact[u], scale[u] = terms.sum(), np.abs(terms).sum()
        return exact, scale

    #: Budget of the per-tap reduction: 4 eps of the sum of the terms'
    #: magnitudes.  Measured here: <= 0.25 eps at every shape below and
    #: at the benchmark's 36^3; the worst case of any fixed order over
    #: n'^3 terms is n'^3 eps; a wrong or dropped term misses by orders
    #: of magnitude.
    BUDGET = 4 * np.finfo(np.float64).eps

    @pytest.mark.parametrize("image_shape,grad_shape,sparsity", [
        ((14, 14, 14), (12, 12, 12), (1, 1, 1)),
        ((17, 17, 17), (13, 13, 13), (2, 2, 2)),
        ((21, 21, 21), (13, 13, 13), (4, 4, 4)),
        ((9, 12, 10), (8, 6, 7), (1, 2, 3)),
        ((1, 16, 16), (1, 14, 14), (1, 1, 1)),
    ])
    def test_kernel_gradient_within_budget_of_longdouble(
            self, rng, image_shape, grad_shape, sparsity):
        image = rng.standard_normal(image_shape)
        grad = rng.standard_normal(grad_shape)
        ours = conv_kernel_gradient(image, grad, sparsity)
        exact, scale = self.longdouble_kernel_gradient(image, grad, sparsity)
        assert ours.shape == exact.shape
        assert (np.abs(ours - exact) <= self.BUDGET * scale).all()

    def test_kernel_gradient_bits_depend_only_on_the_operands(self, rng):
        base = rng.standard_normal((20, 22, 24))
        view = base[::2, ::-2, 1::2]
        assert not view.flags.c_contiguous
        grad = rng.standard_normal((8, 9, 10))
        first = conv_kernel_gradient(view, grad)
        assert first.shape == (3, 3, 3)
        assert conv_kernel_gradient(view, grad).tobytes() == first.tobytes()
        assert conv_kernel_gradient(view.copy(), grad).tobytes() \
            == first.tobytes()
        wide = np.zeros((8, 9, 20))
        wide[:, :, ::2] = grad
        assert conv_kernel_gradient(view, wide[:, :, ::2]).tobytes() \
            == first.tobytes()

    def test_gradient_larger_than_image_rejected(self, rng):
        with pytest.raises(ValueError, match="larger than image"):
            conv_kernel_gradient(np.zeros((4, 4, 4)), np.zeros((4, 5, 4)))


@given(n=st.integers(4, 10), k=st.integers(1, 3), s=st.integers(1, 2),
       seed=st.integers(0, 1000))
def test_property_valid_full_roundtrip_shapes(n, k, s, seed):
    """full(valid shapes) restores the input shape for all (n, k, s)."""
    eff = (k - 1) * s + 1
    if eff > n:
        return
    rng = np.random.default_rng(seed)
    img = rng.standard_normal((n, n, n))
    ker = rng.standard_normal((k, k, k))
    out = correlate_valid(img, ker, s)
    back = conv_backward_input(rng.standard_normal(out.shape), ker, s)
    assert back.shape == img.shape


@given(seed=st.integers(0, 10_000))
def test_property_adjoint_identity(seed):
    """<corr(I,K), G> == <I, bwd(G,K)> for random sizes."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 9))
    k = int(rng.integers(1, 4))
    img = rng.standard_normal((n, n, n))
    ker = rng.standard_normal((k, k, k))
    out = correlate_valid(img, ker)
    grad = rng.standard_normal(out.shape)
    assert np.isclose(np.sum(out * grad),
                      np.sum(img * conv_backward_input(grad, ker)))


# -- the flat walk against the strided fold it replaced ---------------------

def fold_valid(img, ker, s):
    """Forward as a fold over ``tap_views``: ``out += I[s*u + x] * K[u]``."""
    out = np.zeros(tuple(n - (k - 1) * sd
                         for n, k, sd in zip(img.shape, ker.shape, s)))
    for weight, block in zip(ker.ravel(), tap_views(img, ker.shape, s,
                                                    out.shape)):
        out += block * weight
    return out


def fold_backward(grad, ker, s):
    """Input gradient as a scatter over ``tap_views``, taps reversed."""
    out = np.zeros(tuple(o + (k - 1) * sd
                         for o, k, sd in zip(grad.shape, ker.shape, s)))
    blocks = list(tap_views(out, ker.shape, s, grad.shape))
    for weight, block in zip(ker.ravel()[::-1], reversed(blocks)):
        block += grad * weight
    return out


def both_paths(img, ker, s):
    """(forward, backward) through the public functions and through the
    backend on its plan, checked equal bitwise, with the gradient."""
    plan = registry["direct"].build(img.shape, ker.shape, s)
    out = correlate_valid(img, ker, s)
    assert plan.forward(img, ker).tobytes() == out.tobytes()
    grad = np.random.default_rng(1).standard_normal(out.shape)
    back = conv_backward_input(grad, ker, s)
    assert plan.backward(grad, ker).tobytes() == back.tobytes()
    return out, grad, back


@given(k=st.tuples(*[st.integers(1, 3)] * 3),
       s=st.tuples(*[st.integers(1, 4)] * 3),
       extra=st.tuples(*[st.integers(0, 4)] * 3),
       flat2d=st.booleans(), seed=st.integers(0, 10_000))
@example(k=(1, 1, 1), s=(1, 1, 1), extra=(0, 0, 0), flat2d=False, seed=0)
@example(k=(1, 2, 3), s=(1, 4, 2), extra=(0, 1, 0), flat2d=True, seed=1)
@settings(max_examples=80, deadline=None)
def test_property_flat_walk_is_the_tap_fold_bitwise(k, s, extra, flat2d,
                                                    seed):
    """Random non-cubic shapes, anisotropic kernels, sparsity 1-4 per
    axis, unit extents and 2-D inputs: forward and backward equal the
    strided fold bit for bit (signed zeros included)."""
    if flat2d:
        k, s, extra = (1,) + k[1:], (1,) + s[1:], (0,) + extra[1:]
    rng = np.random.default_rng(seed)
    n = tuple((kd - 1) * sd + 1 + e for kd, sd, e in zip(k, s, extra))
    img, ker = signed_zeros(rng, n), signed_zeros(rng, k)
    if flat2d:  # promoted to 3-D with a leading singleton axis
        out = correlate_valid(img[0], ker[0], s[1:])
        grad = rng.standard_normal(out.shape)
        back = conv_backward_input(grad[0], ker[0], s[1:])
    else:
        out, grad, back = both_paths(img, ker, s)
    assert out.tobytes() == fold_valid(img, ker, s).tobytes()
    assert back.tobytes() == fold_backward(grad, ker, s).tobytes()


class TestFlatWalkInputs:
    @pytest.mark.parametrize("layout", ["strided", "fortran"])
    def test_non_contiguous_operands_match_their_copies(self, rng, layout):
        base = rng.standard_normal((20, 22, 24))
        img = (base[::2, ::-2, 1::2] if layout == "strided"
               else np.asfortranarray(base[:10, :11, :12]))
        assert not img.flags.c_contiguous
        ker = rng.standard_normal((3, 2, 4))
        s = (1, 2, 1)
        plan = registry["direct"].build(img.shape, ker.shape, s)
        out = correlate_valid(img.copy(), ker, s)
        assert correlate_valid(img, ker, s).tobytes() == out.tobytes()
        assert plan.forward(img, ker).tobytes() == out.tobytes()
        grad = (rng.standard_normal((2 * out.shape[0],) + out.shape[1:])
                [::2] if layout == "strided"
                else np.asfortranarray(rng.standard_normal(out.shape)))
        assert not grad.flags.c_contiguous
        back = conv_backward_input(grad.copy(), ker, s)
        assert conv_backward_input(grad, ker, s).tobytes() == back.tobytes()
        assert plan.backward(grad, ker).tobytes() == back.tobytes()

    @pytest.mark.parametrize("s", [(1, 1, 1), (2, 1, 3)])
    def test_nan_reaches_exactly_the_voxels_the_fold_sends_it_to(self, rng,
                                                                 s):
        """The skipped columns between rows never leak into a result."""
        ker = rng.standard_normal((2, 3, 2))
        for where in [(0, 0, 0), (4, 9, 8), (2, 0, 8), (3, 9, 0)]:
            img = rng.standard_normal((5, 10, 9))
            img[where] = np.nan
            out, grad, _ = both_paths(img, ker, s)
            assert np.isnan(out).any()
            assert np.array_equal(np.isnan(out),
                                  np.isnan(fold_valid(img, ker, s)))
            grad[tuple(min(w, o - 1) for w, o in zip(where, grad.shape))] \
                = np.nan
            back = conv_backward_input(grad, ker, s)
            assert np.array_equal(np.isnan(back),
                                  np.isnan(fold_backward(grad, ker, s)))
