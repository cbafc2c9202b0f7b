"""CPU-vs-GPU comparison harness — Figures 8 and 9.

Generates the paper's seconds-per-update bar charts as tables:

* **Fig 8** (2D): ZNN (18-core c4.8xlarge, FFT) vs Caffe, Caffe+cuDNN
  and Theano (Titan X, direct), kernels {10, 20, 30, 40}^2, output
  patches {1 … 64}^2, width 40, sparse training.  ``None`` entries are
  the paper's missing bars (the framework's modelled footprint exceeds
  the Titan X's 12 GB).
* **Fig 9** (3D): ZNN vs Theano's 3D path, kernels {3, 5, 7}^3, output
  patches {1 … 8}^3.  (Caffe's official release had no 3D support.)
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.gpu_model import (
    GPU_FRAMEWORKS,
    gpu_fits_in_memory,
    gpu_seconds_per_update,
)
from repro.baselines.znn_model import comparison_layers, znn_seconds_per_update

__all__ = [
    "FIG8_KERNELS",
    "FIG8_OUTPUTS",
    "FIG9_KERNELS",
    "FIG9_OUTPUTS",
    "ComparisonRow",
    "fig8_comparison",
    "fig9_comparison",
]

FIG8_KERNELS = (10, 20, 30, 40)
FIG8_OUTPUTS = (1, 2, 4, 8, 16, 32, 64)
FIG9_KERNELS = (3, 5, 7)
FIG9_OUTPUTS = (1, 2, 4, 6, 8)


@dataclass
class ComparisonRow:
    """One bar group: seconds/update per system at one (kernel, output)."""

    kernel_size: int
    output_size: int
    seconds: Dict[str, Optional[float]] = field(default_factory=dict)

    def winner(self) -> str:
        """Fastest system (OOM entries excluded)."""
        valid = {k: v for k, v in self.seconds.items() if v is not None}
        return min(valid, key=valid.get)  # type: ignore[arg-type]


def fig8_comparison(kernels: Sequence[int] = FIG8_KERNELS,
                    outputs: Sequence[int] = FIG8_OUTPUTS,
                    width: int = 40) -> List[ComparisonRow]:
    """The 2D comparison of Fig 8."""
    rows: List[ComparisonRow] = []
    for k in kernels:
        for o in outputs:
            layers = comparison_layers(2, k, o, width=width)
            row = ComparisonRow(kernel_size=k, output_size=o)
            row.seconds["znn"] = znn_seconds_per_update(layers)
            for key in ("caffe", "caffe-cudnn", "theano"):
                fw = GPU_FRAMEWORKS[key]
                if gpu_fits_in_memory(fw, layers):
                    row.seconds[key] = gpu_seconds_per_update(fw, layers)
                else:
                    row.seconds[key] = None  # the paper's missing bars
            rows.append(row)
    return rows


def fig9_comparison(kernels: Sequence[int] = FIG9_KERNELS,
                    outputs: Sequence[int] = FIG9_OUTPUTS,
                    width: int = 40) -> List[ComparisonRow]:
    """The 3D comparison of Fig 9 (ZNN vs Theano's 3D path)."""
    rows: List[ComparisonRow] = []
    for k in kernels:
        for o in outputs:
            layers = comparison_layers(3, k, o, width=width)
            row = ComparisonRow(kernel_size=k, output_size=o)
            row.seconds["znn"] = znn_seconds_per_update(layers)
            fw = GPU_FRAMEWORKS["theano-3d"]
            if gpu_fits_in_memory(fw, layers):
                row.seconds["theano"] = gpu_seconds_per_update(fw, layers)
            else:
                row.seconds["theano"] = None
            rows.append(row)
    return rows
