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

Implementation notes (per the HPC guides): tap ``u`` of a C-contiguous
image is the flat run ``flat[off_u : off_u + run]``, ``off_u = sum
s*u*pitch`` (dilation is just another offset table), planned once per
edge in a :class:`DirectPlan`.  Forward *accumulates* ``K[u] * run_u``
at the image's pitch and crops once; backward *scatters* ``K[u] * dO``,
staged at that pitch, taps in reverse C order; the kernel gradient
*reduces* ``I[x + s*u] * dO`` per tap over strided views.  No padded
image, no window copy, no BLAS (which reassociates by the number of
rows): the fixed C tap order makes forward and backward *bitwise
translation covariant* — a voxel of a tile equals the same voxel of the
whole volume, so the serving tiler stitches seam-free — and the kernel
gradient's order a function of the two shapes (``docs/algorithms.md`` §8).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from typing import NamedTuple, Sequence

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
    "DirectPlan",
]


class DirectPlan(NamedTuple):
    """Table II "Direct" as a conv backend, one instance per edge
    (contract: ``docs/algorithms.md`` §8).  It holds the edge's
    geometry: image shape ``n`` (the seam's name for the shape a pass
    runs at), its pitch, C-order tap offsets and ``run``, the flat span
    of the valid outputs.  No scratch: threads share it.  The passes
    skip validation (the public functions validate), and *memo* goes
    unused."""

    transform_shape: tuple
    kernel_shape: tuple
    sparsity: tuple
    out_shape: tuple
    pitch: tuple
    offsets: tuple
    run: int

    name = "direct"
    #: Fixed tap order: a voxel computed inside a tile equals the same
    #: voxel of the whole volume, bit for bit.
    determinism = "tiled-bitwise"
    spectral = False

    @classmethod
    @lru_cache(maxsize=256)
    def build(cls, image_shape, kernel_shape, sparsity=1):
        """The plan at these shapes, cached."""
        n, k, s = map(as_shape3, (image_shape, kernel_shape, sparsity))
        o, pitch = valid_conv_shape(n, k, s), (n[1] * n[2], n[2], 1)
        offsets = tuple(sum(sd * ud * p for sd, ud, p in zip(s, u, pitch))
                        for u in np.ndindex(*k))
        run = sum((od - 1) * p for od, p in zip(o, pitch)) + 1
        return cls(n, k, s, o, pitch, offsets, run)

    def forward(self, image, kernel, memo=None, spectral=False,
                alloc=np.empty):
        """Valid correlation, cropped once (strided *image*: ravel
        copies).  A stack of images (leading axes) is one flat run:
        each image's outputs take the same taps in the same order."""
        flat, (o0, o1, o2) = image.ravel(), self.out_shape
        run = flat.size - voxels(self.transform_shape) + self.run
        acc, tap = np.zeros(image.shape), np.empty(run)
        head = acc.ravel()[:run]
        for weight, off in zip(kernel.ravel().tolist(), self.offsets):
            head += np.multiply(flat[off:off + run], weight, out=tap)
        out = alloc(image.shape[:-3] + self.out_shape)
        np.copyto(out, acc[..., :o0, :o1, :o2])
        return out

    def backward(self, grad, kernel, memo=None, spectral=False):
        """Input gradient, a full convolution: tap ``u`` scatters
        ``K[u] * dO`` to ``off_u``, taps in reverse C order."""
        (o0, o1, o2), run = self.out_shape, self.run
        staged = np.zeros((o0,) + self.transform_shape[1:])
        staged[:, :o1, :o2] = grad
        out, tap = np.zeros(self.transform_shape), np.empty(run)
        staged, flat = staged.ravel()[:run], out.ravel()
        for weight, off in zip(kernel.ravel().tolist()[::-1],
                               self.offsets[::-1]):
            flat[off:off + run] += np.multiply(staged, weight, out=tap)
        return out

    def capture_update(self, image, grad, memo=None):
        """Nothing to capture: the update reads the spatial images."""
        return None

    def update(self, image, grad, memo=None, captured=None):
        """Kernel gradient; einsum's own loop (optimize off: never BLAS)."""
        image, grad = map(np.ascontiguousarray, (image, grad))
        walk = (self.kernel_shape, self.sparsity, self.out_shape)
        return np.array([np.einsum("zyx,zyx->", block, grad)
                         for block in tap_views(image, *walk)]
                        ).reshape(self.kernel_shape)

    def pass_cost(self) -> dict:
        """Analytic cost of one pass, for
        :mod:`repro.observability.profile`'s achieved FLOP/s: ``flops``
        is Table II's ``n'^3 * k^3`` (each pass touches every (output
        voxel, tap) pair once), ``bytes`` the flat walk's float64
        traffic — per tap ``run`` voxels (``n'^3`` plus the columns
        between rows) — plus one write of the result."""
        flops = direct_conv_task_cost(self.transform_shape,
                                      self.kernel_shape, self.sparsity)
        return {"flops": flops, "bytes": 8.0 * (
            len(self.offsets) * self.run + voxels(self.out_shape))}

    @staticmethod
    def layer_flops(f_in, f_out, image_shape, kernel_shape, sparsity=1,
                    passes=("forward", "backward", "update"),
                    pinned_kernels=False, constant=None) -> float:
        """Table II "Direct" FLOPs of *passes* for one layer (there are
        no transforms for *pinned_kernels* or *constant* to touch)."""
        costs = conv_layer_costs_direct(f_in, f_out, image_shape,
                                        kernel_shape, sparsity).as_dict()
        return sum(costs[p] for p in passes)


def direct_pass_cost(image_shape: int | Sequence[int],
                     kernel_shape: int | Sequence[int],
                     sparsity: int | Sequence[int] = 1) -> dict:
    """:meth:`DirectPlan.pass_cost` of the plan at these shapes."""
    return DirectPlan.build(image_shape, kernel_shape, sparsity).pass_cost()


def flip3(kernel: np.ndarray) -> np.ndarray:
    """Reflect a 3D kernel along all three dimensions."""
    return kernel[::-1, ::-1, ::-1]


def dilate_kernel(kernel: np.ndarray, sparsity: int | Sequence[int]) -> np.ndarray:
    """Zero-stuff *kernel* so taps sit every s-th voxel (effective footprint).

    Used by the FFT path; the direct path offsets its taps instead and
    never materialises the dilated kernel.
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
              dilation: tuple[int, int, int], out_shape: tuple[int, int, int],
              step: tuple[int, int, int] = (1, 1, 1)):
    """The strided walk over a window's taps on the trailing three
    axes, in C order: per tap ``u``
    the view ``image[d*u + t*x]`` over all window positions ``x`` in
    *out_shape* (``d`` the dilation, ``t`` the step), which the kernel
    gradient and the window maximum of :mod:`repro.tensor.filtering`
    fold in this order."""
    axes = [[slice(u * d, u * d + (o - 1) * t + 1, t) for u in range(k)]
            for k, d, o, t in zip(window, dilation, out_shape, step)]
    for zs, ys, xs in product(*axes):  # C order: x fastest
        yield image[..., zs, ys, xs]


def correlate_valid(image: np.ndarray, kernel: np.ndarray,
                    sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Valid sparse correlation, output shape ``n - (k-1)*s`` per dim:
    ``out = sum_u kernel[u] * image[s*u + x]``, accumulated tap by tap."""
    img = check_array3(image, "image")
    ker = check_array3(kernel, "kernel")
    return DirectPlan.build(img.shape, ker.shape, sparsity).forward(img, ker)


def convolve_valid(image: np.ndarray, kernel: np.ndarray,
                   sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Valid sparse convolution (kernel reflected): the paper's forward op."""
    ker = check_array3(kernel, "kernel")
    return correlate_valid(image, flip3(ker), sparsity)


def correlate_full(image: np.ndarray, kernel: np.ndarray,
                   sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Full sparse correlation: output shape ``n + (k-1)*s`` per dim.

    The flat walk in scatter form: tap ``u`` adds ``kernel[u] * image``
    into the output ``(k-1-u)*s`` voxels in — the terms, in the order,
    of a valid correlation of the zero-padded image, less the padding's
    ``+-0`` terms, which a running sum that is never ``-0`` does not
    feel; nor the ``kernel[u] * 0`` the staged zero columns add, unless
    ``kernel[u]`` is infinite or NaN.  Finite kernels agree bit for bit.
    """
    ker = check_array3(kernel, "kernel")
    return convolve_full(image, flip3(ker), sparsity)


def convolve_full(image: np.ndarray, kernel: np.ndarray,
                  sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """Full sparse convolution (kernel reflected): the paper's backward
    op, :meth:`DirectPlan.backward` of the valid plan at the full shape."""
    img = check_array3(image, "image")
    ker = check_array3(kernel, "kernel")
    full = full_conv_shape(img.shape, ker.shape, sparsity)
    return DirectPlan.build(full, ker.shape, sparsity).backward(img, ker)


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
    return DirectPlan.build(img.shape, k, s).update(img, go)
