"""FFT-based 3D convolution — the "FFT-based" columns of Table II.

All three passes of a convolutional edge are computed with real FFTs of
one common *transform size*: the layer's input image size ``n``.  With a
single cached spectrum per kernel (the un-flipped, dilated kernel,
zero-padded to ``n``) the passes become pointwise spectral products:

==========  ==========================================  ================
pass        spectral form                               spatial result
==========  ==========================================  ================
forward     ``conj(FK) * FI``                           head-crop to n'
backward    ``FK * FdO``                                exactly n
update      ``conj(FdO) * FI``                          head-crop to k_eff,
                                                        subsample by s
==========  ==========================================  ================

where ``FI``/``FdO``/``FK`` are size-``n`` rfftn spectra of the forward
input image, the backward (gradient) image and the kernel.  Exactness of
the size-``n`` circular transforms is argued in :mod:`repro.tensor.fourier`
and property-tested against the direct method.

The plan class :class:`FftConvPlan` is this file's entry in
:data:`repro.tensor.backends.registry` — the unit the autotuner
(Section IV) selects per layer, built once per edge — and the spectra
are what :class:`repro.tensor.fft_cache.TransformCache` memoizes across
passes to realise the "(Memoized)" column of Table II.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.pram.costs import (
    DEFAULT_FFT_CONSTANT,
    conv_layer_costs_fft,
    fft_cost,
    pointwise_product_cost,
)
from repro.resilience.faults import active_plan
from repro.tensor.conv_direct import dilate_kernel
from repro.tensor.fourier import (
    crop_head,
    fast_transform_shape,
    forward_transform,
    inverse_transform,
)
from repro.utils.shapes import (
    Shape3,
    as_shape3,
    effective_kernel_shape,
    full_conv_shape,
    valid_conv_shape,
    voxels,
)
from repro.utils.validation import check_array3

__all__ = [
    "fft_correlate_valid",
    "fft_convolve_full",
    "fft_conv_backward_input",
    "fft_conv_kernel_gradient",
    "FftConvPlan",
]


# ---------------------------------------------------------------------------
# Standalone one-shot functions (tests and kernel probes): one pass each.
# ---------------------------------------------------------------------------

def fft_correlate_valid(image: np.ndarray, kernel: np.ndarray,
                        sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """FFT equivalent of :func:`repro.tensor.conv_direct.correlate_valid`."""
    img = check_array3(image, "image")
    ker = check_array3(kernel, "kernel")
    return FftConvPlan(img.shape, ker.shape, sparsity).forward(img, ker)


def fft_conv_backward_input(grad_output: np.ndarray, kernel: np.ndarray,
                            sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """FFT equivalent of :func:`repro.tensor.conv_direct.conv_backward_input`."""
    go = check_array3(grad_output, "grad_output")
    ker = check_array3(kernel, "kernel")
    image_shape = full_conv_shape(go.shape, ker.shape, sparsity)
    return FftConvPlan(image_shape, ker.shape, sparsity).backward(go, ker)


def fft_convolve_full(image: np.ndarray, kernel: np.ndarray,
                      sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """FFT full convolution (alias of the backward-input computation)."""
    return fft_conv_backward_input(image, kernel, sparsity)


def fft_conv_kernel_gradient(image: np.ndarray, grad_output: np.ndarray,
                             sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """FFT equivalent of :func:`repro.tensor.conv_direct.conv_kernel_gradient`."""
    img = check_array3(image, "image")
    go = check_array3(grad_output, "grad_output")
    eff = tuple(i - o + 1 for i, o in zip(img.shape, go.shape))
    s = as_shape3(sparsity, name="sparsity")
    k = tuple((e - 1) // sd + 1 for e, sd in zip(eff, s))
    return FftConvPlan(img.shape, k, s).update(img, go)


# ---------------------------------------------------------------------------
# Per-edge plan: the backend
# ---------------------------------------------------------------------------

def _compute(kind: str, compute):
    """The null memo: every spectrum is transformed on demand."""
    return compute()


def _fault_point(product: str) -> None:
    """Where an injected ``fft`` fault lands: before a spectral product."""
    fault = active_plan()
    if fault is not None:
        fault.check("fft", f"fft:{product}")


class FftConvPlan:
    """Table II "FFT-based (Memoized)" as a conv backend, one instance
    per edge at a fixed transform size (contract: ``docs/algorithms.md``
    §8).

    ``memo(kind, compute)`` shares spectra between passes: kinds
    ``"img"``, ``"grad"`` and ``"ker"`` are the source image, backward
    image and kernel spectra, which a ``ConvEdge`` routes through the
    network's :class:`~repro.tensor.fft_cache.TransformCache`.

    Parameters
    ----------
    image_shape:
        Shape of the layer's *input* images (the common transform size n).
    kernel_shape:
        Shape of the (undilated) kernels.
    sparsity:
        Kernel dilation factor(s) — Section II "sparse convolution".
    fast_sizes:
        Pad the transform up to 5-smooth sizes.
    """

    name = "fft"
    #: Two runs agree bit for bit; a tile and the whole volume only to
    #: rounding (the transform size moves with the extent).
    determinism = "run-bitwise"
    #: ``spectral=True`` passes return the half-spectrum product, for a
    #: node that sums spectra and inverts once.
    spectral = True

    def __init__(self, image_shape: int | Sequence[int],
                 kernel_shape: int | Sequence[int],
                 sparsity: int | Sequence[int] = 1,
                 fast_sizes: bool = False) -> None:
        self.image_shape: Shape3 = as_shape3(image_shape, name="image_shape")
        self.kernel_shape: Shape3 = as_shape3(kernel_shape, name="kernel_shape")
        self.sparsity: Shape3 = as_shape3(sparsity, name="sparsity")
        self.effective_kernel_shape: Shape3 = effective_kernel_shape(
            self.kernel_shape, self.sparsity)
        self.output_shape: Shape3 = valid_conv_shape(
            self.image_shape, self.kernel_shape, self.sparsity)
        # Any transform size >= the image size is exact for all three
        # passes; padding up to 5-smooth sizes buys FFT speed.
        self.transform_shape: Shape3 = (
            fast_transform_shape(self.image_shape) if fast_sizes
            else self.image_shape)

    @classmethod
    def build(cls, image_shape, kernel_shape, sparsity=1, fast_sizes=False):
        """The plan an edge at these shapes runs (not cached: it is
        cheap, and per-edge)."""
        return cls(image_shape, kernel_shape, sparsity, fast_sizes)

    # -- spectra -----------------------------------------------------------

    def image_spectrum(self, image: np.ndarray) -> np.ndarray:
        """rfftn of a forward input image at the transform size."""
        img = check_array3(image, "image")
        if img.shape != self.image_shape:
            raise ValueError(f"image shape {img.shape} != plan {self.image_shape}")
        return forward_transform(img, self.transform_shape)

    def grad_spectrum(self, grad_output: np.ndarray) -> np.ndarray:
        """rfftn of a backward (gradient) image, zero-padded to the
        transform size."""
        go = check_array3(grad_output, "grad_output")
        if go.shape != self.output_shape:
            raise ValueError(
                f"grad_output shape {go.shape} != plan output {self.output_shape}")
        return forward_transform(go, self.transform_shape)

    def kernel_spectrum(self, kernel: np.ndarray) -> np.ndarray:
        """rfftn of the dilated (un-flipped) kernel, zero-padded to the
        transform size.  This single spectrum serves forward *and*
        backward passes — the reuse the memoized column of Table II
        counts on."""
        ker = check_array3(kernel, "kernel")
        if ker.shape != self.kernel_shape:
            raise ValueError(
                f"kernel shape {ker.shape} != plan {self.kernel_shape}")
        return forward_transform(dilate_kernel(ker, self.sparsity),
                                 self.transform_shape)

    # -- the passes ----------------------------------------------------------

    def forward_product(self, image_spec: np.ndarray,
                        kernel_spec: np.ndarray) -> np.ndarray:
        """Spectrum of the valid correlation (to be node-summed, then
        finalised with :meth:`finalize_forward`)."""
        _fault_point("forward_product")
        return np.conj(kernel_spec) * image_spec

    def forward(self, image, kernel, memo=_compute, spectral=False):
        """Valid correlation ``conj(FK) * FI``, head-cropped to n'."""
        product = self.forward_product(
            memo("img", lambda: self.image_spectrum(image)),
            memo("ker", lambda: self.kernel_spectrum(kernel)))
        return product if spectral else self.finalize_forward(product)

    def backward(self, grad, kernel, memo=_compute, spectral=False):
        """Input gradient (full convolution) ``FK * FdO``, exactly n."""
        grad_spec = memo("grad", lambda: self.grad_spectrum(grad))
        kernel_spec = memo("ker", lambda: self.kernel_spectrum(kernel))
        _fault_point("backward_product")
        product = kernel_spec * grad_spec
        return product if spectral else self.finalize_backward(product)

    def capture_update(self, image, grad, memo=_compute):
        """The spectra a deferred update needs, taken while this
        round's memo holds them (forward computed FI, backward FdO)."""
        return (memo("img", lambda: self.image_spectrum(image)),
                memo("grad", lambda: self.grad_spectrum(grad)))

    def update(self, image, grad, memo=_compute, captured=None):
        """Kernel gradient: the lags of ``conj(FdO) * FI``, head-cropped
        to k_eff and subsampled by s."""
        image_spec, grad_spec = captured or self.capture_update(
            image, grad, memo)
        _fault_point("update_product")
        spatial = inverse_transform(np.conj(grad_spec) * image_spec,
                                    self.transform_shape)
        lags = crop_head(spatial, self.effective_kernel_shape)
        s = self.sparsity
        return np.ascontiguousarray(lags[:: s[0], :: s[1], :: s[2]])

    # -- finalisers (inverse transform + crop), applied once per node sum ----

    def finalize_forward(self, spectrum_sum: np.ndarray) -> np.ndarray:
        spatial = inverse_transform(spectrum_sum, self.transform_shape)
        return crop_head(spatial, self.output_shape)

    def finalize_backward(self, spectrum_sum: np.ndarray) -> np.ndarray:
        spatial = inverse_transform(spectrum_sum, self.transform_shape)
        return crop_head(spatial, self.image_shape)

    # -- pricing --------------------------------------------------------------

    def pass_cost(self) -> dict:
        """Analytic cost annotation of one FFT conv pass under this plan.

        ``flops`` charges one size-``transform_shape`` FFT plus the
        pointwise spectral product (Table II's "FFT-based" column at
        this plan's actual transform size, which may exceed the image
        when ``fast_sizes`` padded it).  The memoized image/gradient
        spectra are computed once per *node* and shared by its edges,
        so the per-edge figure charges the product plus one
        kernel-or-finalise transform — matching what a per-edge timer
        brackets.  ``bytes`` counts the float64 spectrum traffic of
        the pass: two spectrum reads, the product write and the
        inverse-transform read.
        """
        return {
            "flops": fft_cost(self.transform_shape)
            + pointwise_product_cost(self.transform_shape),
            "bytes": 8.0 * 4 * voxels(self.transform_shape),
        }

    @staticmethod
    def layer_flops(f_in, f_out, image_shape, kernel_shape=None,
                    sparsity=1, passes=("forward", "backward", "update"),
                    pinned_kernels=False,
                    constant=DEFAULT_FFT_CONSTANT) -> float:
        """Table II "FFT-based (Memoized)" FLOPs of *passes* for one
        layer at transform shape *image_shape*.  *pinned_kernels* drops
        the ``f*f'`` kernel transforms from the forward pass: a warm
        serving model transforms its frozen kernels once per process."""
        costs = conv_layer_costs_fft(f_in, f_out, image_shape,
                                     constant=constant).as_dict()
        if pinned_kernels:
            costs["forward"] = (
                fft_cost(image_shape, constant) * (f_in + f_out)
                + pointwise_product_cost(image_shape) * (f_in * f_out))
        return sum(costs[p] for p in passes)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FftConvPlan(image={self.image_shape}, "
                f"kernel={self.kernel_shape}, sparsity={self.sparsity})")
