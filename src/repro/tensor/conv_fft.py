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

The plan object is what :class:`FftBackend` — this file's entry in
:data:`repro.tensor.backends.registry`, the unit the autotuner (Section
IV) selects per layer — builds per edge, and the spectra are what
:class:`repro.tensor.fft_cache.TransformCache` memoizes across passes to
realise the "(Memoized)" column of Table II.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

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
    "FftBackend",
]


# ---------------------------------------------------------------------------
# Standalone one-shot functions (tests and kernel probes).
# ---------------------------------------------------------------------------

def fft_correlate_valid(image: np.ndarray, kernel: np.ndarray,
                        sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """FFT equivalent of :func:`repro.tensor.conv_direct.correlate_valid`."""
    plan = FftConvPlan(check_array3(image, "image").shape,
                       check_array3(kernel, "kernel").shape, sparsity)
    return plan.forward(plan.image_spectrum(image), plan.kernel_spectrum(kernel))


def fft_conv_backward_input(grad_output: np.ndarray, kernel: np.ndarray,
                            sparsity: int | Sequence[int] = 1) -> np.ndarray:
    """FFT equivalent of :func:`repro.tensor.conv_direct.conv_backward_input`."""
    go = check_array3(grad_output, "grad_output")
    ker = check_array3(kernel, "kernel")
    image_shape = full_conv_shape(go.shape, ker.shape, sparsity)
    plan = FftConvPlan(image_shape, ker.shape, sparsity)
    return plan.backward(plan.grad_spectrum(go), plan.kernel_spectrum(kernel))


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
    plan = FftConvPlan(img.shape, k, s)
    return plan.kernel_gradient(plan.image_spectrum(img), plan.grad_spectrum(go))


# ---------------------------------------------------------------------------
# Per-layer plan
# ---------------------------------------------------------------------------

class FftConvPlan:
    """Per-edge/per-layer FFT convolution plan at a fixed transform size.

    Parameters
    ----------
    image_shape:
        Shape of the layer's *input* images (the common transform size n).
    kernel_shape:
        Shape of the (undilated) kernels.
    sparsity:
        Kernel dilation factor(s) — Section II "sparse convolution".
    """

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

    # -- spectral products (the per-edge task bodies) ------------------------

    def forward_product(self, image_spec: np.ndarray,
                        kernel_spec: np.ndarray) -> np.ndarray:
        """Spectrum of the valid correlation (to be node-summed, then
        finalised with :meth:`finalize_forward`)."""
        fault = active_plan()
        if fault is not None:
            fault.check("fft", "fft:forward_product")
        return np.conj(kernel_spec) * image_spec

    def backward_product(self, grad_spec: np.ndarray,
                         kernel_spec: np.ndarray) -> np.ndarray:
        """Spectrum of the full convolution of the output gradient."""
        fault = active_plan()
        if fault is not None:
            fault.check("fft", "fft:backward_product")
        return kernel_spec * grad_spec

    def update_product(self, image_spec: np.ndarray,
                       grad_spec: np.ndarray) -> np.ndarray:
        """Spectrum whose inverse holds the kernel gradient lags."""
        fault = active_plan()
        if fault is not None:
            fault.check("fft", "fft:update_product")
        return np.conj(grad_spec) * image_spec

    # -- finalisers (inverse transform + crop), applied once per node sum ----

    def finalize_forward(self, spectrum_sum: np.ndarray) -> np.ndarray:
        spatial = inverse_transform(spectrum_sum, self.transform_shape)
        return crop_head(spatial, self.output_shape)

    def finalize_backward(self, spectrum_sum: np.ndarray) -> np.ndarray:
        spatial = inverse_transform(spectrum_sum, self.transform_shape)
        return crop_head(spatial, self.image_shape)

    def finalize_update(self, spectrum: np.ndarray) -> np.ndarray:
        spatial = inverse_transform(spectrum, self.transform_shape)
        lags = crop_head(spatial, self.effective_kernel_shape)
        s = self.sparsity
        return np.ascontiguousarray(lags[:: s[0], :: s[1], :: s[2]])

    # -- convenience end-to-end passes ---------------------------------------

    def forward(self, image_spec: np.ndarray,
                kernel_spec: np.ndarray) -> np.ndarray:
        """Valid correlation of one image with one kernel."""
        return self.finalize_forward(self.forward_product(image_spec, kernel_spec))

    def backward(self, grad_spec: np.ndarray,
                 kernel_spec: np.ndarray) -> np.ndarray:
        """Input gradient (full convolution) for one edge."""
        return self.finalize_backward(self.backward_product(grad_spec, kernel_spec))

    def kernel_gradient(self, image_spec: np.ndarray,
                        grad_spec: np.ndarray) -> np.ndarray:
        """Kernel gradient for one edge."""
        return self.finalize_update(self.update_product(image_spec, grad_spec))

    # -- introspection --------------------------------------------------------

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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FftConvPlan(image={self.image_shape}, "
                f"kernel={self.kernel_shape}, sparsity={self.sparsity})")


def _compute(kind: str, compute):
    """The null memo: every spectrum is transformed on demand."""
    return compute()


class FftBackend:
    """Table II "FFT-based (Memoized)" as a conv backend (contract:
    ``docs/algorithms.md`` "Adding a conv backend").

    ``memo(kind, compute)`` shares spectra between passes: kinds
    ``"img"``, ``"grad"`` and ``"ker"`` are the source image, backward
    image and kernel spectra, which a ``ConvEdge`` routes through the
    network's :class:`~repro.tensor.fft_cache.TransformCache`.
    """

    name = "fft"
    #: Two runs agree bit for bit; a tile and the whole volume only to
    #: rounding (the transform size moves with the extent).
    determinism = "run-bitwise"
    #: ``spectral=True`` passes return the half-spectrum product, for a
    #: node that sums spectra and inverts once.
    spectral = True
    plan = FftConvPlan

    def forward(self, image, kernel, sparsity, plan, memo=_compute,
                spectral=False):
        product = plan.forward_product(
            memo("img", lambda: plan.image_spectrum(image)),
            memo("ker", lambda: plan.kernel_spectrum(kernel)))
        return product if spectral else plan.finalize_forward(product)

    def backward(self, grad, kernel, sparsity, plan, memo=_compute,
                 spectral=False):
        product = plan.backward_product(
            memo("grad", lambda: plan.grad_spectrum(grad)),
            memo("ker", lambda: plan.kernel_spectrum(kernel)))
        return product if spectral else plan.finalize_backward(product)

    def capture_update(self, image, grad, sparsity, plan, memo=_compute):
        """The spectra a deferred update needs, taken while this
        round's memo holds them (forward computed FI, backward FdO)."""
        return (memo("img", lambda: plan.image_spectrum(image)),
                memo("grad", lambda: plan.grad_spectrum(grad)))

    def update(self, image, grad, sparsity, plan, memo=_compute,
               captured=None):
        return plan.kernel_gradient(*(captured or self.capture_update(
            image, grad, sparsity, plan, memo)))

    def pass_cost(self, image_shape, kernel_shape, sparsity=1, plan=None):
        return (plan or FftConvPlan(image_shape, kernel_shape,
                                    sparsity)).pass_cost()

    def layer_flops(self, f_in, f_out, image_shape, kernel_shape=None,
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
