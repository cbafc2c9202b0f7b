"""GPU baselines and the CPU-vs-GPU comparison harness (Figs 8–9)."""

from repro.baselines.compare import (
    FIG8_KERNELS,
    FIG8_OUTPUTS,
    FIG9_KERNELS,
    FIG9_OUTPUTS,
    ComparisonRow,
    fig8_comparison,
    fig9_comparison,
)
from repro.baselines.dense import (
    dense_offset_count,
    gpu_dense_seconds,
    znn_dense_layers,
    znn_dense_seconds,
)
from repro.baselines.gpu_model import (
    GPU_FRAMEWORKS,
    TITAN_X_MEMORY_BYTES,
    TITAN_X_PEAK_FLOPS,
    ConvLayerShape,
    GpuFramework,
    gpu_fits_in_memory,
    gpu_memory_bytes,
    gpu_seconds_per_update,
)
from repro.baselines.znn_model import (
    COMPARISON_SPEC,
    comparison_layers,
    znn_seconds_per_update,
)

__all__ = [
    "FIG8_KERNELS",
    "FIG8_OUTPUTS",
    "FIG9_KERNELS",
    "FIG9_OUTPUTS",
    "ComparisonRow",
    "fig8_comparison",
    "fig9_comparison",
    "dense_offset_count",
    "gpu_dense_seconds",
    "znn_dense_layers",
    "znn_dense_seconds",
    "GPU_FRAMEWORKS",
    "TITAN_X_MEMORY_BYTES",
    "TITAN_X_PEAK_FLOPS",
    "ConvLayerShape",
    "GpuFramework",
    "gpu_fits_in_memory",
    "gpu_memory_bytes",
    "gpu_seconds_per_update",
    "COMPARISON_SPEC",
    "comparison_layers",
    "znn_seconds_per_update",
]
