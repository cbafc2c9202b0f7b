"""Analytic GPU baselines — Caffe, Caffe+cuDNN, Theano on a Titan X.

We cannot run the paper's GPU comparison hardware, so Figs 8 and 9 are
reproduced with calibrated throughput models (see DESIGN.md).  The
paper's comparison is fundamentally *algorithmic*: the GPU frameworks
perform direct convolution (SIMD layerwise, one thread per output
voxel; Caffe/cuDNN lower a layer to matrix multiplication), so their
time scales with ``f * f' * n'^d * k^d``, while ZNN-CPU uses FFT
convolution scaling with ``n^d log n``.  The crossovers in kernel size
and the out-of-memory cliffs (the missing bars of Fig 8) follow from
those scalings plus two calibrated constants per framework: an
effective fraction of the Titan X's peak throughput and a per-update
fixed overhead.

Memory model (Titan X: 12 GB): parameters + gradients, forward +
backward activations, and the im2col lowering workspace
(``f * k^d * n'^d`` floats) that makes Caffe "unable to handle networks
of the given size" for large kernels, and similarly limits Theano's 3D
convolutions to kernels ≤ 7^3 (Section IX-B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.utils.shapes import voxels

__all__ = [
    "TITAN_X_PEAK_FLOPS",
    "TITAN_X_MEMORY_BYTES",
    "ConvLayerShape",
    "GpuFramework",
    "GPU_FRAMEWORKS",
    "gpu_seconds_per_update",
    "gpu_memory_bytes",
    "gpu_fits_in_memory",
]

#: Titan X (Maxwell): ~6.1 TFLOP/s single precision, 12 GB on-board.
TITAN_X_PEAK_FLOPS = 6.1e12
TITAN_X_MEMORY_BYTES = 12 * 1024**3

_BYTES_PER_FLOAT = 4


@dataclass(frozen=True)
class ConvLayerShape:
    """One fully connected convolutional layer's shape summary."""

    f_in: int
    f_out: int
    input_shape: Tuple[int, int, int]
    output_shape: Tuple[int, int, int]
    kernel_shape: Tuple[int, int, int]

    @property
    def macs_per_pass(self) -> float:
        """Multiply-accumulates of one direct pass."""
        return (self.f_in * self.f_out
                * voxels(self.output_shape) * voxels(self.kernel_shape))


@dataclass(frozen=True)
class GpuFramework:
    """A direct-convolution GPU implementation model.

    ``efficiency``: fraction of Titan X peak achieved on conv layers
    (cuDNN's sgemm lowering is the most efficient; Theano's 3D path the
    least).  ``per_layer_overhead``: kernel-launch plus framework
    dispatch per layer per pass.  ``fixed_overhead``: per-update cost
    (optimizer, host sync).  ``workspace_passes``: how many im2col-sized
    workspaces the framework keeps live at once (0 = implicit-GEMM
    style, no lowering buffer).
    """

    name: str
    efficiency: float
    per_layer_overhead: float = 30e-6
    fixed_overhead: float = 3e-3
    workspace_passes: int = 1
    supports_3d: bool = True

    def conv_pass_seconds(self, layer: ConvLayerShape) -> float:
        flops = 2.0 * layer.macs_per_pass
        return (flops / (TITAN_X_PEAK_FLOPS * self.efficiency)
                + self.per_layer_overhead)


#: Calibrated framework models.  Efficiencies are chosen so the
#: regimes of Figs 8–9 reproduce: cuDNN fastest, Caffe's plain path
#: next, Theano's 2D path slower, and Theano's 3D path (the only 3D
#: option the paper could benchmark) far below peak.
GPU_FRAMEWORKS: Dict[str, GpuFramework] = {
    "caffe": GpuFramework(name="Caffe", efficiency=0.40,
                          per_layer_overhead=40e-6, fixed_overhead=4e-3,
                          workspace_passes=2, supports_3d=False),
    "caffe-cudnn": GpuFramework(name="Caffe (cuDNN)", efficiency=0.55,
                                per_layer_overhead=25e-6, fixed_overhead=3e-3,
                                workspace_passes=0, supports_3d=False),
    "theano": GpuFramework(name="Theano", efficiency=0.25,
                           per_layer_overhead=60e-6, fixed_overhead=8e-3,
                           workspace_passes=2, supports_3d=True),
    "theano-3d": GpuFramework(name="Theano (3D)", efficiency=0.10,
                              per_layer_overhead=80e-6, fixed_overhead=10e-3,
                              workspace_passes=1, supports_3d=True),
}


def gpu_seconds_per_update(framework: GpuFramework,
                           layers: Sequence[ConvLayerShape]) -> float:
    """Modelled seconds per training update: three direct-convolution
    passes per conv layer (forward, backward, weight gradient) plus
    fixed per-update overhead.  Pooling/transfer layers are bandwidth
    trivia on a GPU and are folded into the overhead."""
    total = framework.fixed_overhead
    for layer in layers:
        total += 3.0 * framework.conv_pass_seconds(layer)
    return total


def gpu_memory_bytes(framework: GpuFramework,
                     layers: Sequence[ConvLayerShape]) -> int:
    """Modelled on-board memory footprint of training."""
    params = sum(l.f_in * l.f_out * voxels(l.kernel_shape) for l in layers)
    # weights + gradients + momentum
    total = 3 * params * _BYTES_PER_FLOAT
    # forward + backward activations of every layer interface
    acts = sum(l.f_in * voxels(l.input_shape) for l in layers)
    acts += layers[-1].f_out * voxels(layers[-1].output_shape)
    total += 2 * acts * _BYTES_PER_FLOAT
    # im2col lowering workspace (the Caffe killer for big kernels)
    if framework.workspace_passes:
        workspace = max(l.f_in * voxels(l.kernel_shape) * voxels(l.output_shape)
                        for l in layers)
        total += framework.workspace_passes * workspace * _BYTES_PER_FLOAT
    return int(total)


def gpu_fits_in_memory(framework: GpuFramework,
                       layers: Sequence[ConvLayerShape],
                       capacity: int = TITAN_X_MEMORY_BYTES) -> bool:
    """False reproduces the paper's "missing bars"."""
    return gpu_memory_bytes(framework, layers) <= capacity
