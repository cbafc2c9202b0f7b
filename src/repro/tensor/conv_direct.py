"""Direct (spatial-domain) 3D convolution and correlation, with sparsity.

This is the "Direct" column of Table II in the paper.  All functions
operate on 3D float arrays; 2D and 1D inputs are promoted to 3D with
leading singleton axes.

Conventions
-----------
*Correlation* is the un-flipped inner product used throughout modern
ConvNet code:

    corr_valid(I, K)[x] = sum_u I[x + s*u] * K[u]

*Convolution* is the textbook (MATLAB ``conv``) operation — correlation
with the kernel reflected along all three dimensions.  The paper's
forward pass performs a *valid convolution* and its backward pass a
*full convolution* with the reflected kernel (Section III-A); both are
expressible in either vocabulary and we provide both.

*Sparsity* ``s`` (Section II) dilates the kernel: only every s-th voxel
within the sliding window enters the linear combination, so a kernel of
size ``k`` has an effective footprint of ``(k-1)*s + 1`` voxels per
dimension.  Sparse convolution is what makes max-filtering ConvNets
equivalent to sliding-window max-pooling ConvNets (Fig 2).

Implementation notes (per the HPC guides): all three passes fold one
kernel tap at a time over strided views of the larger image
(:func:`tap_views`), in a fixed C order over the taps — the forward
pass *accumulates* ``K[u] * I[x + s*u]``, the backward pass *scatters*
``K[u] * dO`` into the tap's block of the input gradient, the kernel
gradient *reduces* ``I[x + s*u] * dO`` to one number per tap.  The
heavy loops run in compiled ufunc code, no pass materialises a padded
image or an ``out_shape + kernel_shape`` window copy, and — unlike a
BLAS contraction, which reassociates by the number of rows — the
floating-point reduction order never depends on the image extent.
Forward and backward are therefore *bitwise translation covariant*: a
voxel computed inside a small tile equals the same voxel computed
inside the whole volume, bit for bit, which the serving tiler relies on
to stitch seam-free dense output.  The kernel gradient sums over the
whole image; its order is a function of the two shapes alone.  No BLAS
call is left in this module (``docs/algorithms.md`` §8).
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np

from repro.pram.costs import conv_layer_costs_direct, direct_conv_task_cost
from repro.utils.shapes import (
    as_shape3,
    effective_kernel_shape,
    full_conv_shape,
    valid_conv_shape,
    voxels,
)
from repro.utils.validation import check_array3

__all__ = [
    "correlate_valid",
    "correlate_full",
    "convolve_valid",
    "convolve_full",
    "conv_backward_input",
    "conv_kernel_gradient",
    "direct_pass_cost",
    "flip3",
    "dilate_kernel",
    "tap_views",
    "DirectBackend",
]


def direct_pass_cost(image_shape: int | Sequence[int],
                     kernel_shape: int | Sequence[int],
                     sparsity: int | Sequence[int] = 1) -> dict:
    """Analytic cost annotation of one direct conv pass at these shapes.

    ``flops`` is the Table II count ``n'^3 * k^3`` (every pass — valid
    forward, full backward, kernel gradient — touches each
    (output-voxel, kernel-tap) pair once).  ``bytes`` follows the tap
    walk all three share: one ``n'^3`` block streamed per kernel tap
    (accumulated into the output, scattered into the input gradient, or
    reduced against the output gradient) plus one write of the result,
    in float64.  Consumed by :mod:`repro.observability.profile` to turn
    measured per-edge timings into achieved FLOP/s.
    """
    k = voxels(kernel_shape)
    out = voxels(valid_conv_shape(image_shape, kernel_shape, sparsity))
    return {
        "flops": direct_conv_task_cost(image_shape, kernel_shape,
                                       sparsity),
        "bytes": 8.0 * (k * out + out),
    }


def flip3(kernel: np.ndarray) -> np.ndarray:
    """Reflect a 3D kernel along all three dimensions."""
    return kernel[::-1, ::-1, ::-1]


def dilate_kernel(kernel: np.ndarray, sparsity: int | Sequence[int]) -> np.ndarray:
    """Zero-stuff *kernel* so taps sit every s-th voxel (effective footprint).

    Used by the FFT path; the direct path subsamples the window view
    instead and never materialises the dilated kernel.
    """
    k = check_array3(kernel, "kernel")
    s = as_shape3(sparsity, name="sparsity")
    if s == (1, 1, 1):
        return k
    eff = effective_kernel_shape(k.shape, s)
    out = np.zeros(eff, dtype=k.dtype)
    out[:: s[0], :: s[1], :: s[2]] = k
    return out


def tap_views(image: np.ndarray, window: tuple[int, int, int],
              dilation: tuple[int, int, int],
              out_shape: tuple[int, int, int],
              step: tuple[int, int, int] = (1, 1, 1)):
    """The one walk over a window's taps, in C order.

    Yields, per tap ``u``, the strided view ``image[d*u + t*x]`` over
    all window positions ``x`` in *out_shape* (``d`` the dilation, ``t``
    the step).  Every windowed reduction — the three passes below, the
    window maximum of :mod:`repro.tensor.filtering` — folds these views
    in this order, so its reduction order is a function of the window
    shape alone: the bitwise tile-equals-volume property of the module
    notes has this one home.
    """
    axes = [[slice(u * d, u * d + (o - 1) * t + 1, t) for u in range(k)]
            for k, d, o, t in zip(window, dilation, out_shape, step)]
    for zs, ys, xs in product(*axes):  # C order: x fastest
        yield image[zs, ys, xs]


def correlate_valid(image: np.ndarray, kernel: np.ndarray,
                    sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Valid sparse correlation, output shape ``n - (k-1)*s`` per dim:
    ``out = sum_u kernel[u] * image[s*u + x]``, accumulated tap by tap."""
    img = check_array3(image, "image")
    ker = check_array3(kernel, "kernel")
    s = as_shape3(sparsity, name="sparsity")
    out = np.zeros(valid_conv_shape(img.shape, ker.shape, s),
                   dtype=np.result_type(img, ker))
    tap = np.empty(out.shape, dtype=out.dtype)
    blocks = tap_views(img, ker.shape, s, out.shape)
    for weight, block in zip(ker.ravel(), blocks):
        np.multiply(block, weight, out=tap)
        out += tap
    return out


def convolve_valid(image: np.ndarray, kernel: np.ndarray,
                   sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Valid sparse convolution (kernel reflected): the paper's forward op."""
    ker = check_array3(kernel, "kernel")
    return correlate_valid(image, flip3(ker), sparsity)


def correlate_full(image: np.ndarray, kernel: np.ndarray,
                   sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Full sparse correlation: output shape ``n + (k-1)*s`` per dim.

    The tap walk in scatter form: tap ``u`` adds ``kernel[u] * image``
    into the output block ``(k-1-u)*s`` voxels in — the terms, in the
    order, of a valid correlation of the zero-padded image, less the
    padding's ``+-0`` terms, which a running sum that is never ``-0``
    does not feel: for finite kernels the two agree bit for bit.
    """
    img = check_array3(image, "image")
    ker = check_array3(kernel, "kernel")
    s = as_shape3(sparsity, name="sparsity")
    out = np.zeros(full_conv_shape(img.shape, ker.shape, s),
                   dtype=np.result_type(img, ker))
    tap = np.empty(img.shape, dtype=out.dtype)
    blocks = list(tap_views(out, ker.shape, s, img.shape))
    for weight, block in zip(ker.ravel(), reversed(blocks)):
        np.multiply(img, weight, out=tap)
        block += tap
    return out


def convolve_full(image: np.ndarray, kernel: np.ndarray,
                  sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Full sparse convolution (kernel reflected): the paper's backward op."""
    ker = check_array3(kernel, "kernel")
    return correlate_full(image, flip3(ker), sparsity)


def conv_backward_input(grad_output: np.ndarray, kernel: np.ndarray,
                        sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Gradient w.r.t. the input of ``correlate_valid(I, K, s)``.

    Mathematically a full convolution of the output gradient with the
    (un-flipped) kernel — exactly the paper's "Convolution Jacobian":
    the kernel reflected along all three dimensions, full convolution.
    Output shape grows back to the forward input shape.
    """
    return convolve_full(grad_output, kernel, sparsity)


def conv_kernel_gradient(image: np.ndarray, grad_output: np.ndarray,
                         sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Gradient w.r.t. the kernel of ``correlate_valid(I, K, s)``.

    ``dK[u] = sum_x I[x + s*u] * dO[x]`` — a valid correlation of the
    forward input with the backward image, sampled at the kernel's
    dilated tap positions, yielding an image the same size as the kernel
    (Section III-B "Kernel update").
    """
    img = check_array3(image, "image")
    go = check_array3(grad_output, "grad_output")
    s = as_shape3(sparsity, name="sparsity")
    k = tuple((n - m) // sd + 1 for n, m, sd in zip(img.shape, go.shape, s))
    if min(k) < 1:
        raise ValueError(f"grad_output {go.shape} larger than image "
                         f"{img.shape}")
    # einsum's own multiply-add loop (optimize off: never BLAS).
    return np.array([np.einsum("zyx,zyx->", block, go)
                     for block in tap_views(img, k, s, go.shape)]).reshape(k)


class DirectBackend:
    """Table II "Direct" as a conv backend (contract: ``docs/algorithms.md``
    "Adding a conv backend").  Stateless, so *plan* and *memo* go unused."""

    name = "direct"
    #: Fixed tap order: a voxel computed inside a tile equals the same
    #: voxel of the whole volume, bit for bit.
    determinism = "tiled-bitwise"
    spectral = False

    def plan(self, image_shape, kernel_shape, sparsity=1, fast_sizes=False):
        return None

    def forward(self, image, kernel, sparsity=1, plan=None, memo=None,
                spectral=False):
        return correlate_valid(image, kernel, sparsity)

    def backward(self, grad, kernel, sparsity=1, plan=None, memo=None,
                 spectral=False):
        return conv_backward_input(grad, kernel, sparsity)

    def capture_update(self, image, grad, sparsity=1, plan=None, memo=None):
        return None

    def update(self, image, grad, sparsity=1, plan=None, memo=None,
               captured=None):
        return conv_kernel_gradient(image, grad, sparsity)

    def pass_cost(self, image_shape, kernel_shape, sparsity=1, plan=None):
        return direct_pass_cost(image_shape, kernel_shape, sparsity)

    def layer_flops(self, f_in, f_out, image_shape, kernel_shape,
                    sparsity=1, passes=("forward", "backward", "update"),
                    pinned_kernels=False, constant=None) -> float:
        """Table II "Direct" FLOPs of *passes* for one layer (there are
        no transforms for *pinned_kernels* or *constant* to touch)."""
        costs = conv_layer_costs_direct(f_in, f_out, image_shape,
                                        kernel_shape, sparsity).as_dict()
        return sum(costs[p] for p in passes)
