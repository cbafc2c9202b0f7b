"""Real-FFT helpers shared by the FFT convolution path.

The paper computes all three passes of a convolutional layer (forward,
backward, update) with transforms of a single common size — the layer's
*input* image size ``n`` — which is what makes the FFT memoization of
Table II possible: the FFT of a forward image computed during the
forward pass is reused by the weight update, and the FFT of a kernel is
reused by the backward pass.

A size-``n`` circular transform is exact for all three operations:

* valid forward conv (``n`` ⊛ ``k`` → ``n'``): the circular wraparound
  only contaminates output positions ``0 .. k-2``; the valid region
  ``k-1 .. n-1`` is exact.
* full backward conv (``n'`` ⊛ ``k`` → ``n``): the linear result has
  length exactly ``n``; no wraparound at all.
* kernel gradient (correlation of ``n`` with ``n'`` at lags
  ``0 .. (k-1)s``): aliased lags fall outside the linear correlation's
  support, so the needed lags are exact.

These exactness facts are property-tested against the direct method in
``tests/tensor/test_conv_fft.py``.

Every helper acts on the trailing three axes, so a stack of images
(leading axes) transforms in one call, each image bit for bit as alone,
into ``out`` or what ``alloc`` (``np.empty``'s signature) hands it.
"""

from __future__ import annotations

from typing import Sequence, Tuple

import numpy as np

from repro.utils.shapes import as_shape3

__all__ = [
    "rfft_shape",
    "forward_transform",
    "inverse_transform",
    "crop_head",
    "next_fast_len",
]

_FAST_RADICES = (2, 3, 5, 7, 11)


def next_fast_len(n: int) -> int:
    """Smallest 11-smooth integer >= *n*: factors 2, 3, 5, 7 and 11,
    pocketfft's fast radices (a prime length costs 2-3x per voxel).
    Tile planning and load-trace snapping round to it."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    while True:
        rest = n
        for p in _FAST_RADICES:
            while rest % p == 0:
                rest //= p
        if rest == 1:
            return n
        n += 1


def rfft_shape(transform_shape: Sequence[int]) -> Tuple[int, int, int]:
    """Shape of the half-spectrum produced by ``rfftn`` at *transform_shape*."""
    t = as_shape3(transform_shape, name="transform_shape")
    return (t[0], t[1], t[2] // 2 + 1)


def forward_transform(image: np.ndarray, transform_shape: Sequence[int],
                      out=None) -> np.ndarray:
    """Real 3D FFT of *image* zero-padded to *transform_shape*."""
    t = as_shape3(transform_shape, name="transform_shape")
    return np.fft.rfftn(image, s=t, axes=(-3, -2, -1), out=out)


def inverse_transform(spectrum: np.ndarray, transform_shape: Sequence[int],
                      alloc=np.empty, scratch=None) -> np.ndarray:
    """Inverse real 3D FFT back to *transform_shape*, bit for bit
    ``irfftn``: its axis order (-3, -2, then the real -1) through one
    *scratch* spectrum (*spectrum* itself when it is not needed after)."""
    t = as_shape3(transform_shape, name="transform_shape")
    if scratch is None:
        scratch = alloc(spectrum.shape, spectrum.dtype)
    np.fft.ifft(spectrum, axis=-3, out=scratch)
    np.fft.ifft(scratch, axis=-2, out=scratch)
    return np.fft.irfft(scratch, t[2], axis=-1,
                        out=alloc(spectrum.shape[:-1] + t[2:]))


def crop_head(image: np.ndarray, out_shape: Sequence[int],
              alloc=np.empty) -> np.ndarray:
    """Keep the leading *out_shape* corner (*image* itself when that is
    all of it)."""
    o = as_shape3(out_shape, name="out_shape")
    if image.shape[-3:] == o and image.flags.c_contiguous:
        return image
    out = alloc(image.shape[:-3] + o, image.dtype)
    np.copyto(out, image[..., : o[0], : o[1], : o[2]])
    return out
