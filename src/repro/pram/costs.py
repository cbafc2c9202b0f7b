"""FLOP cost formulas — Tables I, II, III and IV of the paper.

Complexity is measured in floating-point operations.  The paper assumes
FFT complexity ``C * n^3 * log2(n^3)`` for an ``n x n x n`` image, with
``C = 5`` used for the Fig 4 plots; we keep ``C`` a parameter and allow
anisotropic shapes (``N = prod(shape)``, ``cost = C * N * log2(N)``).

Two granularities are provided:

* **per-task** costs (one edge / one node-level FFT), consumed by the
  task-graph builder and the discrete-event simulator; and
* **per-layer** aggregates reproducing the table rows verbatim,
  consumed by the Brent-bound analysis (Fig 4) and the table benches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.utils.shapes import as_shape3, valid_conv_shape, voxels

__all__ = [
    "DEFAULT_FFT_CONSTANT",
    "fft_cost",
    "direct_conv_task_cost",
    "pointwise_product_cost",
    "transfer_task_cost",
    "pool_task_cost",
    "filter_task_cost",
    "LayerCosts",
    "conv_layer_costs_direct",
    "conv_layer_costs_fft",
    "pooling_layer_costs",
    "filtering_layer_costs",
    "transfer_layer_costs",
    "conv_layer_tinf",
    "nonconv_layer_tinf",
]

#: The constant C of Table II / Fig 4 ("assumed to be 5").
DEFAULT_FFT_CONSTANT = 5.0


def fft_cost(shape: int | Sequence[int], constant: float = DEFAULT_FFT_CONSTANT
             ) -> float:
    """FLOPs of one 3D FFT of *shape*: ``C * N * log2 N``."""
    n = voxels(shape)
    return constant * n * math.log2(max(n, 2))


def direct_conv_task_cost(image_shape: int | Sequence[int],
                          kernel_shape: int | Sequence[int],
                          sparsity: int | Sequence[int] = 1) -> float:
    """FLOPs of one direct valid convolution: ``n'^3 * k^3``.

    The same count applies to the edge's backward (full) convolution
    and to its kernel-gradient convolution — every pass touches each
    (output-voxel, kernel-tap) pair once (Table II, "Direct").
    """
    out = valid_conv_shape(image_shape, kernel_shape, sparsity)
    return float(voxels(out) * voxels(kernel_shape))


def pointwise_product_cost(image_shape: int | Sequence[int]) -> float:
    """FLOPs of one spectral pointwise multiply-accumulate: ``4 n^3``
    (a complex multiply is 4 real multiplies plus adds; the paper
    counts 4 per voxel)."""
    return 4.0 * voxels(image_shape)


def transfer_task_cost(image_shape: int | Sequence[int]) -> float:
    """Transfer function forward/backward/update on one image: n^3."""
    return float(voxels(image_shape))


def pool_task_cost(image_shape: int | Sequence[int]) -> float:
    """Max-pooling forward (and backward) on one image: n^3."""
    return float(voxels(image_shape))


def filter_task_cost(image_shape: int | Sequence[int],
                     window: int | Sequence[int],
                     backward: bool = False) -> float:
    """Max-filtering: forward ``6 n^3 log k`` (three separable 1-D
    passes with O(log k) heap ops), backward ``n^3`` (Table I)."""
    n = voxels(image_shape)
    if backward:
        return float(n)
    k = max(as_shape3(window, name="window"))
    return 6.0 * n * math.log2(max(k, 2))


# ---------------------------------------------------------------------------
# Per-layer aggregates: Table I and Table II rows.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerCosts:
    """FLOPs of one layer for each pass of one learning iteration."""

    forward: float
    backward: float
    update: float

    @property
    def total(self) -> float:
        return self.forward + self.backward + self.update

    def as_dict(self) -> Dict[str, float]:
        return {"forward": self.forward, "backward": self.backward,
                "update": self.update, "total": self.total}


def conv_layer_costs_direct(f_in: int, f_out: int,
                            image_shape: int | Sequence[int],
                            kernel_shape: int | Sequence[int],
                            sparsity: int | Sequence[int] = 1) -> LayerCosts:
    """Table II "Direct": every pass costs ``f' * f * n'^3 * k^3``."""
    per_edge = direct_conv_task_cost(image_shape, kernel_shape, sparsity)
    edges = f_in * f_out
    return LayerCosts(edges * per_edge, edges * per_edge, edges * per_edge)


def conv_layer_costs_fft(f_in: int, f_out: int,
                         image_shape: int | Sequence[int],
                         memoized: bool = True,
                         constant: float = DEFAULT_FFT_CONSTANT) -> LayerCosts:
    """Table II "FFT-based" and "FFT-based (Memoized)".

    Forward: ``3C n^3 log n [f' + f + f'*f] + 4 f'*f n^3`` — f image
    FFTs, f'*f kernel FFTs, f' inverse FFTs, one spectral product per
    edge.  Memoization removes the kernel re-transforms from the
    backward pass and the image/gradient re-transforms from the update
    (9C -> 6C in the total).
    """
    one_fft = fft_cost(image_shape, constant)
    prod = pointwise_product_cost(image_shape)
    edges = f_in * f_out
    fwd = one_fft * (f_in + edges + f_out) + prod * edges
    if memoized:
        bwd = one_fft * (f_out + f_in) + prod * edges
        upd = one_fft * edges + prod * edges
    else:
        bwd = one_fft * (f_out + edges + f_in) + prod * edges
        upd = one_fft * (f_in + f_out + edges) + prod * edges
    return LayerCosts(fwd, bwd, upd)


def pooling_layer_costs(f: int, image_shape: int | Sequence[int]) -> LayerCosts:
    """Table I "Pooling": forward f*n^3, backward f*n^3, no update."""
    n = voxels(image_shape)
    return LayerCosts(f * n, f * n, 0.0)


def filtering_layer_costs(f: int, image_shape: int | Sequence[int],
                          window: int | Sequence[int]) -> LayerCosts:
    """Table I "Filtering": forward f*6n^3 log k, backward f*n^3."""
    return LayerCosts(f * filter_task_cost(image_shape, window),
                      f * filter_task_cost(image_shape, window, backward=True),
                      0.0)


def transfer_layer_costs(f: int, image_shape: int | Sequence[int]) -> LayerCosts:
    """Table I "Transfer function": f*n^3 for each of the three passes."""
    n = voxels(image_shape)
    return LayerCosts(f * n, f * n, f * n)


# ---------------------------------------------------------------------------
# T-infinity per layer: Tables III and IV.
# ---------------------------------------------------------------------------

def conv_layer_tinf(f_in: int, f_out: int,
                    image_shape: int | Sequence[int],
                    kernel_shape: int | Sequence[int],
                    mode: str = "direct",
                    sparsity: int | Sequence[int] = 1,
                    constant: float = DEFAULT_FFT_CONSTANT) -> LayerCosts:
    """Table III: time for a fully connected conv layer with infinitely
    many processors.

    All edges run in parallel; summing the f convergent convolutions at
    each output node takes ``ceil(log2 f)`` rounds of the binary
    collapse, each costing one image addition (n'^3 direct, 4n^3 in
    the spectral domain).  That models the paper's Algorithm 4; the
    runtime's edge-order sum adds one contribution at a time per node.
    """
    n3 = voxels(image_shape)
    log_f_in = math.ceil(math.log2(max(f_in, 1))) if f_in > 1 else 0
    log_f_out = math.ceil(math.log2(max(f_out, 1))) if f_out > 1 else 0
    if mode == "direct":
        per_edge = direct_conv_task_cost(image_shape, kernel_shape, sparsity)
        out3 = voxels(valid_conv_shape(image_shape, kernel_shape, sparsity))
        fwd = per_edge + out3 * log_f_in
        bwd = per_edge + n3 * log_f_out
        upd = per_edge
    elif mode in ("fft", "fft-memo"):
        two_ffts = 2 * fft_cost(image_shape, constant)  # forward + inverse
        fwd = two_ffts + 4 * n3 * log_f_in
        bwd = two_ffts + 4 * n3 * log_f_out
        if mode == "fft-memo":
            # Update reuses both memoized spectra: one inverse FFT + product.
            upd = fft_cost(image_shape, constant) + 4 * n3
        else:
            upd = two_ffts + 4 * n3
    else:
        raise ValueError(f"unknown conv mode {mode!r}")
    return LayerCosts(fwd, bwd, upd)


def nonconv_layer_tinf(kind: str, image_shape: int | Sequence[int],
                       window: int | Sequence[int] = 2) -> LayerCosts:
    """Table IV: pooling/filtering/transfer layers with infinite
    processors — all nodes in parallel, so the per-node cost."""
    n3 = voxels(image_shape)
    if kind == "pool":
        return LayerCosts(float(n3), float(n3), 0.0)
    if kind == "filter":
        k = max(as_shape3(window, name="window"))
        return LayerCosts(6.0 * n3 * math.log2(max(k, 2)), float(n3), 0.0)
    if kind == "transfer":
        return LayerCosts(float(n3), float(n3), float(n3))
    raise ValueError(f"unknown layer kind {kind!r}")
