"""The window-maximum contract (docs/algorithms.md "Window maximum"),
run over both uses of the one kernel: max-filtering (``step = 1,
dilation = sparsity``) and max-pooling (``step = window``).

Values equal an independent reference (the paper's heap-based separable
filter; a brute-force block maximum); the winner of every window is the
first maximum in C tap order — ``np.argmax`` over an explicit copy of
the window, ties, signed zeros, infinities and NaN included — and
indexes a voxel of its own window; the one scatter is the
finite-difference Jacobian and accumulates where windows overlap; and a
voxel computed inside a tile equals the same voxel of the whole volume
bit for bit.
"""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from repro.tensor import (
    max_filter_backward,
    max_filter_forward,
    max_filter_separable,
    max_pool_backward,
    max_pool_forward,
)
from repro.tensor.filtering import scatter_winners, window_max

#: name -> (image shape, window, step, dilation)
CASES = {
    "filter": ((6, 7, 8), (3, 3, 3), (1, 1, 1), (1, 1, 1)),
    "filter-sparse": ((7, 7, 8), (2, 2, 2), (1, 1, 1), (2, 2, 2)),
    "filter-anisotropic": ((6, 8, 7), (2, 1, 3), (1, 1, 1), (2, 3, 1)),
    "filter-2d": ((1, 9, 9), (1, 3, 3), (1, 1, 1), (1, 1, 1)),
    "pool": ((6, 6, 6), (2, 2, 2), (2, 2, 2), (1, 1, 1)),
    "pool-anisotropic": ((4, 6, 8), (2, 3, 4), (2, 3, 4), (1, 1, 1)),
}
cases = pytest.mark.parametrize("case", list(CASES))


def forward(case, image):
    """The public forward of *case*'s kind."""
    _, window, _, dilation = CASES[case]
    if case.startswith("pool"):
        return max_pool_forward(image, window)
    return max_filter_forward(image, window, dilation)


def backward(case, grad, winners):
    shape, window, _, _ = CASES[case]
    if case.startswith("pool"):
        return max_pool_backward(grad, winners, window)
    return max_filter_backward(grad, winners, shape)


def explicit_windows(image, window, step, dilation):
    """``(out0, out1, out2, k^3)`` copy of every window, taps in C order."""
    effective = tuple((k - 1) * d + 1 for k, d in zip(window, dilation))
    view = sliding_window_view(image, effective)
    view = view[::step[0], ::step[1], ::step[2],
                ::dilation[0], ::dilation[1], ::dilation[2]]
    return view.reshape(view.shape[:3] + (-1,))


def argmax_rule(image, window, step, dilation):
    """(values, winners) by ``np.argmax`` over the explicit window copy."""
    windows = explicit_windows(image, window, step, dilation)
    indices = explicit_windows(
        np.arange(image.size).reshape(image.shape), window, step, dilation)
    first = np.argmax(windows, axis=-1)[..., np.newaxis]
    return (np.take_along_axis(windows, first, axis=-1)[..., 0],
            np.take_along_axis(indices, first, axis=-1)[..., 0])


def tied_image(shape, seed):
    """Few distinct values, so nearly every window holds a tie, with
    signed zeros and infinities among them."""
    rng = np.random.default_rng(seed)
    return rng.choice([-np.inf, -1.0, -0.0, 0.0, 1.0, np.inf], size=shape,
                      p=[0.05, 0.3, 0.15, 0.15, 0.3, 0.05])


@cases
def test_values_equal_the_independent_reference(case, rng):
    shape, window, step, dilation = CASES[case]
    image = rng.standard_normal(shape)
    values, winners = forward(case, image)
    assert values.flags.c_contiguous
    assert winners.shape == values.shape and winners.dtype == np.intp
    if case.startswith("pool"):
        for corner in np.ndindex(values.shape):
            block = tuple(slice(c * p, (c + 1) * p)
                          for c, p in zip(corner, window))
            assert values[corner] == image[block].max()
    else:
        # A sparse filter is a dense one on each of the s^3 sub-lattices.
        for phase in np.ndindex(dilation):
            lattice = tuple(slice(r, None, s)
                            for r, s in zip(phase, dilation))
            np.testing.assert_array_equal(
                values[lattice], max_filter_separable(image[lattice], window))


@cases
@pytest.mark.parametrize("seed", range(3))
def test_first_maximum_in_tap_order_wins(case, seed):
    shape, window, step, dilation = CASES[case]
    image = tied_image(shape, seed)
    values, winners = forward(case, image)
    ref_values, ref_winners = argmax_rule(image, window, step, dilation)
    assert values.tobytes() == ref_values.tobytes()  # -0.0 is not +0.0
    np.testing.assert_array_equal(winners, ref_winners)


@cases
def test_a_window_containing_nan_yields_nan(case, rng):
    shape, window, step, dilation = CASES[case]
    image = rng.standard_normal(shape)
    image[rng.random(shape) < 0.04] = np.nan
    image[-1, -1, -1] = np.nan  # a NaN in the last tap of the last window
    values, winners = forward(case, image)
    poisoned = np.isnan(explicit_windows(image, window, step,
                                         dilation)).any(axis=-1)
    assert poisoned.any() and not poisoned.all()
    np.testing.assert_array_equal(np.isnan(values), poisoned)
    ref_values, ref_winners = argmax_rule(image, window, step, dilation)
    np.testing.assert_array_equal(values, ref_values)
    np.testing.assert_array_equal(winners, ref_winners)


@cases
def test_non_contiguous_input(case, rng):
    shape = CASES[case][0]
    base = rng.standard_normal(tuple(2 * n for n in shape))
    view = base[::2, ::-2, 1::2]
    assert not view.flags.c_contiguous
    values, winners = forward(case, view)
    ref_values, ref_winners = forward(case, view.copy())
    np.testing.assert_array_equal(values, ref_values)
    np.testing.assert_array_equal(winners, ref_winners)


@cases
def test_every_winner_lies_inside_its_own_window(case):
    shape, window, step, dilation = CASES[case]
    image = tied_image(shape, 7)
    values, winners = forward(case, image)
    assert image.ravel()[winners].tobytes() == values.tobytes()
    coords = np.unravel_index(winners, shape)
    for axis, position in enumerate(np.indices(values.shape)):
        tap, rem = np.divmod(coords[axis] - position * step[axis],
                             dilation[axis])
        assert (rem == 0).all()
        assert (tap >= 0).all() and (tap < window[axis]).all()


@cases
def test_backward_is_the_finite_difference_jacobian(case, rng):
    shape = CASES[case][0]
    image = rng.standard_normal(shape)
    values, winners = forward(case, image)
    grad = rng.standard_normal(values.shape)
    back = backward(case, grad, winners)
    assert back.shape == shape
    eps = 1e-6  # far below the gap between two normal draws
    numeric = np.empty(shape)
    for voxel in np.ndindex(shape):
        bumped = image.copy()
        bumped[voxel] += eps
        numeric[voxel] = np.sum((forward(case, bumped)[0] - values)
                                * grad) / eps
    np.testing.assert_allclose(back, numeric, atol=1e-8)


def test_backward_accumulates_where_windows_overlap(rng):
    image = rng.standard_normal((6, 6, 6))
    values, winners = max_filter_forward(image, 3)
    grad = rng.standard_normal(values.shape)
    back = max_filter_backward(grad, winners, image.shape)
    wins = np.bincount(winners.ravel(), minlength=image.size)
    assert wins.max() > 1
    champion = int(np.argmax(wins))
    assert np.isclose(back.ravel()[champion],
                      grad[winners == champion].sum())
    assert np.count_nonzero(back) == np.count_nonzero(wins)


@given(n=st.tuples(*[st.integers(4, 10)] * 3),
       k=st.tuples(*[st.integers(1, 3)] * 3),
       s=st.tuples(*[st.integers(1, 2)] * 3),
       pooling=st.booleans(), data=st.data())
def test_a_tile_voxel_equals_the_whole_volume_voxel(n, k, s, pooling, data):
    """Values bit for bit, winners up to the tile's own origin."""
    if pooling:
        step, s = k, (1, 1, 1)
        n = tuple(nd - nd % kd for nd, kd in zip(n, k))
    else:
        step = (1, 1, 1)
    effective = tuple((kd - 1) * sd + 1 for kd, sd in zip(k, s))
    assume(all(e <= nd for e, nd in zip(effective, n)))
    image = tied_image(n, data.draw(st.integers(0, 999)))
    values, winners = window_max(image, k, step, s)
    # A tile of whole windows: output voxels [lo, hi) per axis.
    lo = tuple(data.draw(st.integers(0, o - 1)) for o in values.shape)
    hi = tuple(data.draw(st.integers(l + 1, o))
               for l, o in zip(lo, values.shape))
    tile = image[tuple(slice(l * t, (h - 1) * t + e)
                       for l, h, t, e in zip(lo, hi, step, effective))]
    tile_values, tile_winners = window_max(tile, k, step, s)
    inside = tuple(slice(l, h) for l, h in zip(lo, hi))
    assert tile_values.tobytes() == values[inside].tobytes()
    absolute = [c + l * t for c, l, t in
                zip(np.unravel_index(tile_winners, tile.shape), lo, step)]
    np.testing.assert_array_equal(np.ravel_multi_index(absolute, n),
                                  winners[inside])


class TestArgumentChecks:
    def test_rank_above_three_rejected(self):
        with pytest.raises(ValueError):
            window_max(np.zeros((2, 2, 2, 2)), 1)

    @pytest.mark.parametrize("bad", [0, -1, (2, 2, 2, 2)])
    def test_window_normalised(self, bad):
        with pytest.raises((ValueError, TypeError)):
            max_filter_forward(np.zeros((4, 4, 4)), bad)
        with pytest.raises((ValueError, TypeError)):
            max_pool_forward(np.zeros((4, 4, 4)), bad)

    def test_sparsity_normalised(self):
        with pytest.raises(ValueError):
            max_filter_forward(np.zeros((4, 4, 4)), 2, 0)

    def test_window_larger_than_image_rejected(self):
        with pytest.raises(ValueError):
            max_filter_forward(np.zeros((4, 4, 4)), 5)
        with pytest.raises(ValueError):
            max_filter_forward(np.zeros((4, 4, 4)), 3, 2)

    def test_pool_divisibility_enforced(self):
        with pytest.raises(ValueError, match="divisible"):
            max_pool_forward(np.zeros((4, 5, 4)), 2)

    def test_winners_must_match_the_gradient(self, rng):
        _, winners = max_filter_forward(rng.standard_normal((5, 5, 5)), 2)
        with pytest.raises(ValueError, match="winners shape"):
            scatter_winners(np.zeros((3, 3, 3)), winners, (5, 5, 5))
        _, winners = max_pool_forward(rng.standard_normal((4, 4, 4)), 2)
        with pytest.raises(ValueError, match="winners shape"):
            max_pool_backward(np.zeros((4, 4, 4)), winners, 2)
