"""Scalability sweeps — Figures 5, 6 and 7.

Reconstructs the paper's two benchmark architectures (Section VIII):

* **3D**: ``CTMCTMCTCT`` — four fully-connected conv layers with
  3x3x3 kernels, rectified-linear transfer layers, two 2x2x2
  max-filtering layers, output patch 12^3, *direct* convolution;
* **2D**: ``CTMCTMCTCTCTCT`` — six conv layers with 11x11 kernels, two
  2x2 max-filterings, output patch 48^2, *FFT* convolution (2D is 3D
  with one singleton dimension).

For each width the computation graph is unrolled into the task
dependency graph and scheduled on a modelled Table V machine by the
discrete-event simulator with the live engine's priority policy;
speedup is measured against the serial work exactly as in the paper
("measurements of the speedup achieved by our proposed parallel
algorithm relative to the serial algorithm").
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.graph.builders import dense_twin
from repro.graph.computation_graph import ComputationGraph
from repro.graph.taskgraph import TaskGraph, build_task_graph
from repro.simulate.des import simulate_schedule
from repro.simulate.machine import MachineSpec

__all__ = [
    "PAPER_WIDTHS",
    "paper_graph_3d",
    "paper_graph_2d",
    "paper_task_graph",
    "max_speedup_vs_width",
    "default_thread_counts",
]

#: The widths of Fig 5's lines ("5, 10, 15, 20, 25, 30, 40, 50, 60, 80,
#: 100, 120, from bottom to top").
PAPER_WIDTHS = (5, 10, 15, 20, 25, 30, 40, 50, 60, 80, 100, 120)

_SPEC_3D = "CTMCTMCTCT"
_SPEC_2D = "CTMCTMCTCTCTCT"


def _paper_graph(spec: str, width: int, kernel, window,
                 output_patch) -> ComputationGraph:
    """*spec*'s skip-kernel net (its :func:`dense_twin`) at *width*, with
    the input that yields *output_patch*: twin fov + patch - 1."""
    twin = dense_twin(spec, width=width, kernel=kernel, window=window)
    graph = twin.build_graph()
    graph.propagate_shapes(tuple(f + p - 1
                                 for f, p in zip(twin.fov, output_patch)))
    return graph


def paper_graph_3d(width: int, output_patch: int = 12) -> ComputationGraph:
    """The Section VIII 3D benchmark network at *width*."""
    return _paper_graph(_SPEC_3D, width, 3, 2, (output_patch,) * 3)


def paper_graph_2d(width: int, output_patch: int = 48) -> ComputationGraph:
    """The Section VIII 2D benchmark network at *width*."""
    return _paper_graph(_SPEC_2D, width, (1, 11, 11), (1, 2, 2),
                        (1, output_patch, output_patch))


def paper_task_graph(dims: int, width: int) -> TaskGraph:
    """Task graph of the paper's 2D (FFT) or 3D (direct) benchmark net."""
    if dims == 3:
        graph = paper_graph_3d(width)
        mode = "direct"
    elif dims == 2:
        graph = paper_graph_2d(width)
        mode = "fft"
    else:
        raise ValueError(f"dims must be 2 or 3, got {dims}")
    return build_task_graph(graph, conv_mode=mode)


def default_thread_counts(machine: MachineSpec,
                          points: int = 8) -> List[int]:
    """A sensible sweep: dense up to the core count, then the SMT range
    up to the hardware thread count."""
    counts = sorted({1, 2, max(machine.cores // 2, 1), machine.cores,
                     (machine.cores + machine.threads) // 2,
                     machine.threads})
    if points > len(counts):
        step = max(machine.cores // max(points - len(counts), 1), 1)
        extra = set(range(step, machine.cores, step))
        counts = sorted(set(counts) | extra)
    return counts


def max_speedup_vs_width(dims: int, widths: Sequence[int],
                         machine: MachineSpec,
                         policy: str = "priority"
                         ) -> List[Tuple[int, float]]:
    """One line of Fig 6 (2D) / Fig 7 (3D): maximal achieved speedup
    (at the full hardware thread count) per network width."""
    out: List[Tuple[int, float]] = []
    for width in widths:
        tg = paper_task_graph(dims, width)
        result = simulate_schedule(tg, machine, machine.threads,
                                   policy=policy)
        out.append((width, result.speedup))
    return out
