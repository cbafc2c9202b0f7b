"""Dense-output inference and the sliding-window equivalence (Fig 2).

A max-pooling ConvNet with field of view ``v`` produces one output
voxel.  Sliding it over every valid window of an ``n^3`` image yields a
dense ``(n - v + 1)^3`` output — useful for boundary detection and
segmentation, but computationally wasteful done literally.  The paper's
efficient equivalent replaces each max-pooling with a *max-filtering*
and dilates all subsequent convolutions by the accumulated pooling
factor (skip-kernels / filter rarefaction); the resulting net computes
the identical dense output in one pass.

This module provides:

* :func:`sliding_window_forward` — the naive reference: apply a
  window-sized network at every offset (only sane for small inputs;
  used to *prove* the equivalence in tests and examples);
* :func:`dense_equivalent_network` — build the max-filter twin of a
  max-pooling network and copy its weights (edge names are preserved by
  the builder, so the mapping is by name);
* :func:`copy_parameters` — kernel/bias transfer between structurally
  matching networks;
* :func:`sparse_lattice` — subsample a dense output on the period-``s``
  lattice the paper calls "sparse training";
* :func:`dense_network_field_of_view` / :func:`pooling_period` — shape
  algebra of the dense twin read off :meth:`LayeredSpec.layers`, the
  one walk of a layer string (no network build needed): the field of
  view is :func:`repro.utils.shapes.input_shape_for_output`, the one
  reverse shape rule, at one output voxel; the period multiplies the
  windows the walk yields.  Both are per axis, so anisotropic pooling
  factors such as ``(1, 2, 2)`` — ubiquitous for serial-section EM
  volumes whose z resolution is coarser — dilate each axis
  independently.

Pooling factors, kernels and windows may all be anisotropic (scalars,
3-tuples, or per-layer lists of either); every computation here is
per-axis.  2D networks are the ``(1, n, n)`` special case with
``(1, p, p)`` windows.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.network import Network
from repro.graph.builders import LayeredSpec, dense_twin
from repro.utils.shapes import Shape3, as_shape3
from repro.utils.validation import check_array3

__all__ = [
    "sliding_window_forward",
    "dense_equivalent_network",
    "dense_network_field_of_view",
    "pooling_period",
    "copy_parameters",
    "sparse_lattice",
]


def sliding_window_forward(window_network: Network, image: np.ndarray,
                           output_node: Optional[str] = None) -> np.ndarray:
    """Naive dense inference: run *window_network* (which must produce a
    single output voxel) at every valid offset of *image*.

    Returns an ``(n - v + 1)`` dense output per dimension, where ``v``
    is the network's field of view.
    """
    img = check_array3(image, "image")
    outs = window_network.output_nodes
    if output_node is None:
        if len(outs) != 1:
            raise ValueError("network has multiple outputs; name one")
        output_node = outs[0].name
    out_shape = window_network.nodes[output_node].shape
    if out_shape != (1, 1, 1):
        raise ValueError(
            f"window network must output a single voxel, got {out_shape}")
    v = window_network.input_nodes[0].shape
    dense_shape = tuple(n - vd + 1 for n, vd in zip(img.shape, v))
    if any(d <= 0 for d in dense_shape):
        raise ValueError(f"image {img.shape} smaller than field of view {v}")
    dense = np.empty(dense_shape, dtype=np.float64)
    for z in range(dense_shape[0]):
        for y in range(dense_shape[1]):
            for x in range(dense_shape[2]):
                window = img[z:z + v[0], y:y + v[1], x:x + v[2]]
                dense[z, y, x] = window_network.forward(window)[output_node][0, 0, 0]
    return dense


def copy_parameters(src: Network, dst: Network) -> int:
    """Copy kernels and biases from *src* to *dst* by edge name.

    Returns the number of parameters copied; raises if a trainable
    edge of *dst* has no counterpart in *src*.
    """
    copied = 0
    src_kernels = {n: e for n, e in src.edges.items() if hasattr(e, "kernel")}
    src_biases = {n: e for n, e in src.edges.items() if hasattr(e, "bias")}
    for name, edge in dst.edges.items():
        if hasattr(edge, "kernel"):
            if name not in src_kernels:
                raise KeyError(f"no source kernel for edge {name!r}")
            dst.set_kernel(name, src_kernels[name].kernel.array)
            copied += 1
        elif hasattr(edge, "bias"):
            if name not in src_biases:
                raise KeyError(f"no source bias for edge {name!r}")
            dst.set_bias(name, src_biases[name].bias)
            copied += 1
    return copied


def dense_network_field_of_view(spec: str, **builder_kwargs) -> Shape3:
    """Per-axis field of view of the dense-equivalent twin of *spec*,
    computed from the layered spec alone (no network build).

    This is the minimum input size of the twin, and the halo a tiled
    dense inference must extend each input block by
    (``input = output + fov - 1`` per axis).  Anisotropic kernels and
    windows are handled per axis.
    """
    return dense_twin(spec, **builder_kwargs).fov


def pooling_period(spec: str, window=2) -> Shape3:
    """Per-axis product of the pooling/filtering windows of *spec* —
    the period of the sparse-training lattice (Section II) and the
    stride at which the original pooling network samples the dense
    twin's output."""
    period = (1, 1, 1)
    for layer in LayeredSpec(spec, width=1, kernel=1,
                             window=window).layers():
        if layer.kind in ("filter", "pool"):
            period = tuple(p * w for p, w in zip(period, layer.window))
    return period  # type: ignore[return-value]


def dense_equivalent_network(pool_network: Network, spec: str,
                             input_shape,
                             conv_mode: str = "direct",
                             **builder_kwargs) -> Network:
    """Build the max-filtering + sparse-convolution twin of a
    max-pooling network built from *spec*, with weights copied.

    *spec* and *builder_kwargs* must match the arguments the pooling
    network was built with (the builder keeps conv/transfer edge names
    stable under the P→M substitution); the twin itself is
    :func:`repro.graph.builders.dense_twin`'s.  Kernels and pooling windows
    may be anisotropic; each axis dilates by its own accumulated
    pooling factor.  The input must cover the twin's field of view on
    every axis — violations raise an explicit per-axis error rather
    than a downstream shape failure.
    """
    network_kwargs = {k: builder_kwargs.pop(k)
                      for k in ("memoize", "num_workers", "seed")
                      if k in builder_kwargs}
    twin = dense_twin(spec, **builder_kwargs)
    shape = as_shape3(input_shape, name="input_shape")
    if any(n < f for n, f in zip(shape, twin.fov)):
        raise ValueError(
            f"input {shape} smaller than the dense twin's field of view "
            f"{twin.fov} (per-axis minimum input size)")
    dense = Network(twin.build_graph(), input_shape=shape,
                    conv_mode=conv_mode, **network_kwargs)
    copy_parameters(pool_network, dense)
    return dense


def sparse_lattice(dense: np.ndarray, period: int | Sequence[int],
                   offset: int | Sequence[int] = 0) -> np.ndarray:
    """Subsample a dense output on a period-``s`` lattice ("sparse
    training" produces predictions exactly on such a lattice)."""
    d = check_array3(dense, "dense")
    p = as_shape3(period, name="period")
    if isinstance(offset, int):
        start = (offset, offset, offset)
    else:
        # Promote like as_shape3, but promoted leading axes get offset
        # 0 (there is nothing to shift along a singleton axis).
        start = tuple(int(v) for v in offset)
        if len(start) in (1, 2):
            start = (0,) * (3 - len(start)) + start
        if len(start) != 3:
            raise ValueError(
                f"offset must be an int or 1–3 ints, got {offset!r}")
    if any(s < 0 for s in start):
        raise ValueError(f"offset must be >= 0, got {start}")
    return np.ascontiguousarray(
        d[start[0]:: p[0], start[1]:: p[1], start[2]:: p[2]])
