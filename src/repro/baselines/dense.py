"""Dense-training cost comparison (Section IX).

"ZNN can also perform 'dense training' … Requiring Caffe or Theano to
perform dense training could have been accomplished by computing 16
sparse outputs in 2D and 64 in 3D to assemble a dense output.  This
method is very inefficient and would have been no contest with ZNN."

The comparison net has two 2x pooling stages, so its outputs live on a
period-4 lattice: a dense map needs 4^d offset evaluations from a
pooling-based SIMD framework, while ZNN's max-filtering network
computes all offsets in one pass whose cost (Table II on the
*unpooled* image pyramid) is far below 4^d sparse passes.
"""

from __future__ import annotations

from typing import List

from repro.baselines.gpu_model import ConvLayerShape, GpuFramework
from repro.baselines.gpu_model import gpu_seconds_per_update
from repro.baselines.znn_model import (
    COMPARISON_SPEC,
    comparison_geometry,
    comparison_layers,
    conv_layer_shapes,
    znn_seconds_per_update,
)
from repro.graph.builders import dense_twin

__all__ = [
    "dense_offset_count",
    "gpu_dense_seconds",
    "znn_dense_layers",
    "znn_dense_seconds",
]


def dense_offset_count(dims: int, pooling_stages: int = 2,
                       pool: int = 2) -> int:
    """Sparse evaluations needed per dense output: (pool^stages)^dims —
    the paper's 16 (2D) and 64 (3D)."""
    if dims not in (2, 3):
        raise ValueError(f"dims must be 2 or 3, got {dims}")
    return (pool ** pooling_stages) ** dims


def gpu_dense_seconds(framework: GpuFramework, dims: int, kernel_size: int,
                      output_size: int, width: int = 40) -> float:
    """Modelled GPU seconds for one *dense* update: the sparse update
    repeated at every pooling offset."""
    layers = comparison_layers(dims, kernel_size, output_size, width=width)
    return (dense_offset_count(dims)
            * gpu_seconds_per_update(framework, layers))


def znn_dense_layers(dims: int, kernel_size: int, output_size: int,
                     width: int = 40) -> List[ConvLayerShape]:
    """Layer shapes of ZNN's dense (max-filtering, skip-kernel)
    equivalent of the comparison net.

    Resolution is never reduced: every layer sees the full input-sized
    image (minus valid-convolution trims), with convolutions dilated by
    the accumulated pooling factor.  ``output_size`` is the *sparse*
    patch size, so the dense output spans ``(output_size-1)*4 + 1``
    voxels per pooled dimension.
    """
    kernel, window, _ = comparison_geometry(dims, kernel_size, output_size)
    # Same input extent as the pooled net (identical field of view).
    pooled = comparison_layers(dims, kernel_size, output_size, width)
    twin = dense_twin(COMPARISON_SPEC, width=width, kernel=kernel,
                      window=window)
    return conv_layer_shapes(twin.layers, pooled[0].input_shape)


def znn_dense_seconds(dims: int, kernel_size: int, output_size: int,
                      width: int = 40, machine="xeon-18") -> float:
    """Modelled ZNN seconds for one dense update (one pass of the
    max-filter net over full-resolution images)."""
    return znn_seconds_per_update(znn_dense_layers(dims, kernel_size,
                                                   output_size, width),
                                  machine=machine)
