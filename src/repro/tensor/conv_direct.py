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

Implementation notes (per the HPC guides): the forward-path
correlations accumulate one kernel tap at a time over strided views of
the image, in a fixed C order over the taps.  Each tap is a fused
scalar-multiply/add over a contiguous block, so the heavy loops still
run in compiled ufunc code — but, unlike a BLAS ``tensordot``
contraction, the floating-point reduction order never depends on the
image extent.  That makes direct convolution *bitwise translation
covariant*: a voxel computed inside a small tile equals the same voxel
computed inside the whole volume, bit for bit, which the serving tiler
relies on to stitch seam-free dense output.  (BLAS GEMV reassociates
the sum differently depending on the number of rows, so tensordot-based
contraction is only covariant up to ~1 ulp.)  The tap accumulation also
never materialises the ``out_shape + kernel_shape`` window copy that a
tensordot contraction would.  The kernel-gradient path keeps the
tensordot form: its output is kernel-sized, so the window tensor is
small and no covariance property is required of it.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
    (output-voxel, kernel-tap) pair once).  ``bytes`` follows the
    tap-accumulation structure of :func:`_accumulate_taps`: the output
    block is streamed once per kernel tap plus one final write, in
    float64.  Consumed by :mod:`repro.observability.profile` to turn
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

    Yields, per tap ``u``, the flat index into (C-contiguous) *image*
    of the tap's first voxel and the strided view ``image[d*u + t*x]``
    over all window positions ``x`` in *out_shape* (``d`` the dilation,
    ``t`` the step).  Every windowed reduction — the correlation sum
    below, the window maximum of :mod:`repro.tensor.filtering` — folds
    these views in this order, so its reduction order is a function of
    the window shape alone: the bitwise tile-equals-volume property of
    the module notes has this one home.
    """
    _, n1, n2 = image.shape
    axes = [[(u * d, slice(u * d, u * d + (o - 1) * t + 1, t))
             for u in range(k)]
            for k, d, o, t in zip(window, dilation, out_shape, step)]
    for (z, zs), (y, ys), (x, xs) in product(*axes):  # C order: x fastest
        yield (z * n1 + y) * n2 + x, image[zs, ys, xs]


def _accumulate_taps(image: np.ndarray, kernel: np.ndarray,
                     sparsity: tuple[int, int, int],
                     out_shape: tuple[int, int, int]) -> np.ndarray:
    """Correlate by accumulating one kernel tap at a time, in C order:
    ``out = sum_u kernel[u] * image[s*u : s*u + out_shape]``, the sum
    taken tap by tap over :func:`tap_views`."""
    out = np.zeros(out_shape, dtype=np.result_type(image, kernel))
    tap = np.empty(out_shape, dtype=out.dtype)
    taps = tap_views(image, kernel.shape, sparsity, out_shape)
    for weight, (_, block) in zip(kernel.ravel(), taps):
        np.multiply(block, weight, out=tap)
        out += tap
    return out


def correlate_valid(image: np.ndarray, kernel: np.ndarray,
                    sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Valid sparse correlation: output shape ``n - (k-1)*s`` per dim."""
    img = check_array3(image, "image")
    ker = check_array3(kernel, "kernel")
    s = as_shape3(sparsity, name="sparsity")
    out_shape = valid_conv_shape(img.shape, ker.shape, s)
    return _accumulate_taps(img, ker, s, out_shape)


def convolve_valid(image: np.ndarray, kernel: np.ndarray,
                   sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Valid sparse convolution (kernel reflected): the paper's forward op."""
    ker = check_array3(kernel, "kernel")
    return correlate_valid(image, flip3(ker), sparsity)


def correlate_full(image: np.ndarray, kernel: np.ndarray,
                   sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Full sparse correlation: output shape ``n + (k-1)*s`` per dim."""
    img = check_array3(image, "image")
    ker = check_array3(kernel, "kernel")
    s = as_shape3(sparsity, name="sparsity")
    out_shape = full_conv_shape(img.shape, ker.shape, s)
    padded = np.pad(
        img, [(e - 1, e - 1) for e in effective_kernel_shape(ker.shape, s)])
    return _accumulate_taps(padded, ker, s, out_shape)


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
    # Windows the size of the output gradient, one per dilated lag; then
    # subsample lags by the sparsity to land on the kernel taps.
    view = sliding_window_view(img, go.shape)
    lags = view[:: s[0], :: s[1], :: s[2]]
    return np.tensordot(lags, go, axes=3)


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
