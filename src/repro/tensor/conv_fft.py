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
update      ``conj(FdO) * FI``                          k³ lags at stride s,
                                                        partial inverse DFT
==========  ==========================================  ================

where ``FI``/``FdO``/``FK`` are size-``n`` rfftn spectra of the forward
input image, the backward (gradient) image and the kernel — ``FK`` a
partial DFT of the undilated kernel (the dilation sits in the exponent).
Both partial DFTs are three small contractions against fixed DFT rows
(:func:`_dft_rows`), not n³ transforms.  Exactness of the size-``n``
circular transforms is argued in :mod:`repro.tensor.fourier` and
property-tested against the direct method.

The plan class :class:`FftConvPlan` is this file's entry in
:data:`repro.tensor.backends.registry` — the unit the autotuner
(Section IV) selects per layer, built once per edge — and the spectra
are what :class:`repro.tensor.fft_cache.TransformCache` memoizes across
passes to realise the "(Memoized)" column of Table II.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from repro.pram.costs import (
    DEFAULT_FFT_CONSTANT,
    conv_layer_costs_fft,
    fft_cost,
    pointwise_product_cost,
)
from repro.resilience.faults import active_plan
from repro.tensor.fourier import (
    crop_head,
    forward_transform,
    inverse_transform,
    rfft_shape,
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

@functools.lru_cache(maxsize=256)
def _dft_rows(transform_shape: Shape3, kernel_shape: Shape3,
              sparsity: Shape3):
    """Read-only DFT rows between the taps ``a = 0..k-1`` at stride s and
    the bins ``u`` of each axis: forward ``exp(-2πi·u·a·s/n)`` (bins, k),
    inverse (k, bins) scaled by 1/n and, on the half-spectrum last axis,
    by the Hermitian weights (1 at bin 0 and an even n's Nyquist, else 2)."""
    forward, inverse = [], []
    for axis, (n, k, s) in enumerate(zip(transform_shape, kernel_shape,
                                          sparsity)):
        last = axis == 2
        u, a = np.ogrid[:n // 2 + 1 if last else n, :k]
        rows = np.exp(-2j * np.pi * (u * a * s % n) / n)
        weight = np.where((u == 0) | (2 * u == n), 1.0, 2.0) if last else 1.0
        forward.append(rows)
        inverse.append((rows.conj() * (weight / n)).T.copy())
    for rows in forward + inverse:
        rows.setflags(write=False)
    return tuple(forward), tuple(inverse)


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
    image and conjugated kernel (``conj(FK)``) spectra, which a
    ``ConvEdge`` routes through the network's
    :class:`~repro.tensor.fft_cache.TransformCache`.

    Parameters
    ----------
    image_shape:
        Shape of the layer's *input* images (the common transform size n).
    kernel_shape:
        Shape of the (undilated) kernels.
    sparsity:
        Kernel dilation factor(s) — Section II "sparse convolution".
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
                 sparsity: int | Sequence[int] = 1) -> None:
        self.image_shape: Shape3 = as_shape3(image_shape, name="image_shape")
        self.kernel_shape: Shape3 = as_shape3(kernel_shape, name="kernel_shape")
        self.sparsity: Shape3 = as_shape3(sparsity, name="sparsity")
        self.effective_kernel_shape: Shape3 = effective_kernel_shape(
            self.kernel_shape, self.sparsity)
        self.output_shape: Shape3 = valid_conv_shape(
            self.image_shape, self.kernel_shape, self.sparsity)
        # All three passes transform at the image size (the paper's n).
        self.transform_shape: Shape3 = self.image_shape

    @classmethod
    def build(cls, image_shape, kernel_shape, sparsity=1):
        """The plan an edge at these shapes runs (not cached: it is
        cheap, and per-edge)."""
        return cls(image_shape, kernel_shape, sparsity)

    # -- spectra -----------------------------------------------------------

    def image_spectrum(self, image: np.ndarray,
                       alloc=np.empty) -> np.ndarray:
        """rfftn of a forward input image, or of each image of a stack
        (leading axes), at the transform size."""
        if image.shape[-3:] != self.image_shape:
            raise ValueError(
                f"image shape {image.shape} != plan {self.image_shape}")
        t = self.transform_shape  # rfftn takes no ``out`` where it pads
        out = alloc(image.shape[:-3] + rfft_shape(t), complex) \
            if image.shape[-3:] == t else None
        return forward_transform(image, t, out=out)

    def grad_spectrum(self, grad_output: np.ndarray) -> np.ndarray:
        """rfftn of a backward (gradient) image, zero-padded to the
        transform size."""
        go = check_array3(grad_output, "grad_output")
        if go.shape != self.output_shape:
            raise ValueError(
                f"grad_output shape {go.shape} != plan output {self.output_shape}")
        return forward_transform(go, self.transform_shape)

    def kernel_spectrum(self, kernel: np.ndarray) -> np.ndarray:
        """rfftn of the dilated (un-flipped) kernel zero-padded to the
        transform size, as a partial DFT of the undilated k³ taps.  This
        single spectrum serves forward *and* backward passes — the
        reuse the memoized column of Table II counts on."""
        ker = check_array3(kernel, "kernel")
        if ker.shape != self.kernel_shape:
            raise ValueError(
                f"kernel shape {ker.shape} != plan {self.kernel_shape}")
        (rows0, rows1, rows2), _ = _dft_rows(
            self.transform_shape, self.kernel_shape, self.sparsity)
        partial = rows1 @ (ker @ rows2.T)                    # (k0, n1, m2)
        spectrum = np.empty(rfft_shape(self.transform_shape), complex)
        # One small GEMM per axis-1 line, not one (n0, k0)@(k0, n1·m2):
        # OpenBLAS threads a GEMM past M·N·K ≈ 65,536, and its spinning
        # helper threads take the other engine worker's core.  (Every
        # caller's next step is a spectral product, a ufunc: see update.)
        np.matmul(rows0, partial.transpose(1, 0, 2),
                  out=spectrum.transpose(1, 0, 2))
        return spectrum

    # -- the passes ----------------------------------------------------------

    def forward_product(self, image_spec: np.ndarray,
                        kernel_spec: np.ndarray) -> np.ndarray:
        """``conj(FK) * FI``: a conjugation :meth:`forward` does not
        pay (its memo holds ``conj(FK)``), then its product."""
        return self._conj_product(np.conj(kernel_spec), image_spec)

    def _conj_product(self, conj_kernel, image_spec, alloc=np.empty):
        """``conj_kernel * image_spec`` into one array from *alloc*."""
        _fault_point("forward_product")
        return np.multiply(conj_kernel, image_spec,
                           out=alloc(image_spec.shape, complex))

    def forward(self, image, kernel, memo=_compute, spectral=False,
                alloc=np.empty):
        """Valid correlation ``conj(FK) * FI``, head-cropped to n'; a
        stack's spectra broadcast against the one kernel spectrum."""
        image_spec = memo("img", lambda: self.image_spectrum(image, alloc))
        product = self._conj_product(
            memo("ker", lambda: np.conj(self.kernel_spectrum(kernel))),
            image_spec, alloc)
        return (product if spectral
                else self.finalize_forward(product, alloc))

    def backward(self, grad, kernel, memo=_compute, spectral=False):
        """Input gradient (full convolution) ``FK * FdO``, exactly n."""
        grad_spec = memo("grad", lambda: self.grad_spectrum(grad))
        kernel_spec = np.conj(
            memo("ker", lambda: np.conj(self.kernel_spectrum(kernel))))
        _fault_point("backward_product")
        product = kernel_spec * grad_spec
        return product if spectral else self.finalize_backward(product)

    def capture_update(self, image, grad, memo=_compute):
        """The spectra a deferred update needs, taken while this
        round's memo holds them (forward computed FI, backward FdO)."""
        return (memo("img", lambda: self.image_spectrum(image)),
                memo("grad", lambda: self.grad_spectrum(grad)))

    def update(self, image, grad, memo=_compute, captured=None):
        """Kernel gradient: the lags ``0, s, .., (k-1)s`` of
        ``conj(FdO) * FI``, by a partial inverse DFT."""
        image_spec, grad_spec = captured or self.capture_update(
            image, grad, memo)
        _fault_point("update_product")
        product = np.conj(grad_spec) * image_spec
        _, (rows0, rows1, rows2) = _dft_rows(
            self.transform_shape, self.kernel_shape, self.sparsity)
        # Batched per line as in kernel_spectrum.  The real part closes
        # with a ufunc, which clears the AVX upper state zgemm leaves
        # dirty (the thread's next SSE transform would run ~1.5x slower).
        lags = np.matmul(rows0, product.transpose(1, 0, 2))  # (n1, k0, m2)
        lags = np.matmul(rows1, lags.transpose(1, 0, 2))     # (k0, k1, m2)
        return lags.real @ rows2.real.T - lags.imag @ rows2.imag.T

    # -- finalisers (inverse transform + crop), applied once per node sum ----

    def finalize_forward(self, spectrum_sum: np.ndarray,
                         alloc=np.empty) -> np.ndarray:
        """Inverse (overwriting the sum) and head crop."""
        spatial = inverse_transform(spectrum_sum, self.transform_shape,
                                    alloc, scratch=spectrum_sum)
        return crop_head(spatial, self.output_shape, alloc)

    def finalize_backward(self, spectrum_sum: np.ndarray) -> np.ndarray:
        spatial = inverse_transform(spectrum_sum, self.transform_shape)
        return crop_head(spatial, self.image_shape)

    # -- pricing --------------------------------------------------------------

    def pass_cost(self) -> dict:
        """Analytic cost annotation of one FFT conv pass under this plan.

        ``flops`` charges one size-``transform_shape`` FFT plus the
        pointwise spectral product (Table II's "FFT-based" column).
        The memoized image/gradient spectra are computed once per
        *node* and shared by its edges, so the per-edge figure charges
        the product plus one kernel-or-finalise transform: Table II's
        count, which its reproduction asserts, though the kernel
        spectrum and the update run as cheaper partial DFTs.  ``bytes``
        counts the float64 spectrum traffic of the pass: two spectrum
        reads, the product write and the inverse-transform read.
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
