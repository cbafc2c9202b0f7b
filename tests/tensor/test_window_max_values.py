"""The values-only entry of the window maximum.

``window_max_values`` must be ``window_max(...)[0]`` bit for bit — over
every case of the contract in ``test_window_max.py`` and over the inputs
where the two could drift apart: equal zeros of mixed sign, NaNs,
non-contiguous input, and a window with more than 127 taps (the winner
rank no longer fits ``int8``).
"""

import numpy as np
import pytest

from repro.tensor.filtering import window_max, window_max_values

from .test_window_max import CASES, argmax_rule, tied_image


def images(shape):
    """name -> image of *shape*, one per kind of trouble."""
    rng = np.random.default_rng(99)
    base = rng.standard_normal(tuple(2 * n for n in shape))
    with_nan = rng.standard_normal(shape)
    with_nan[rng.random(shape) < 0.05] = np.nan
    return {
        "normal": rng.standard_normal(shape),
        "tied": tied_image(shape, 3),
        "signed-zeros": rng.choice([-0.0, 0.0], size=shape),
        "negative-with-zeros": rng.choice([-1.5, -0.0, 0.0], size=shape),
        "nan": with_nan,
        "non-contiguous": base[::2, ::-2, 1::2],
    }


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("kind", list(images((2, 2, 2))))
def test_values_only_equals_window_max_bit_for_bit(case, kind):
    shape, window, step, dilation = CASES[case]
    image = images(shape)[kind]
    values = window_max_values(image, window, step, dilation)
    reference, _ = window_max(image, window, step, dilation)
    assert values.tobytes() == reference.tobytes()
    assert values.flags.c_contiguous
    assert not np.may_share_memory(values, image)


def test_window_of_one_voxel_copies_the_image(rng):
    image = rng.standard_normal((4, 5, 6))
    values = window_max_values(image, 1)
    assert values.tobytes() == image.tobytes()
    assert not np.may_share_memory(values, image)


@pytest.mark.parametrize("kind", ["tied", "rising"])
def test_more_than_127_taps_widen_the_winner_rank(kind):
    """6^3 = 216 taps: a rising image makes every window's *last* tap
    (rank 215) the winner, which an int8 rank would wrap."""
    shape, window = (8, 7, 9), (6, 6, 6)
    image = (tied_image(shape, 5) if kind == "tied"
             else np.arange(float(np.prod(shape))).reshape(shape))
    values, winners = window_max(image, window)
    ref_values, ref_winners = argmax_rule(image, window, (1,) * 3, (1,) * 3)
    assert values.tobytes() == ref_values.tobytes()
    np.testing.assert_array_equal(winners, ref_winners)
    assert window_max_values(image, window).tobytes() == values.tobytes()


def test_dilation_is_named_in_its_error():
    with pytest.raises(ValueError, match="dilation"):
        window_max(np.zeros((4, 4, 4)), 2, 1, 0)
