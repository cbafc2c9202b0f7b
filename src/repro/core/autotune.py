"""Layerwise direct-vs-FFT autotuning (Section IV).

"ZNN performs layerwise auto-tuning to choose between FFT-based or
direct convolution for each layer."  A *layer* here is a group of conv
edges sharing (input shape, kernel shape, sparsity): they all cost the
same, so one measurement decides the whole group.

The tuner times both methods on synthetic data — one forward, one
backward-input and one kernel-gradient transform, which is the per-edge
work mix of a training round — and picks the faster.  Because timing
noise on loaded machines can flip marginal cases, ties within
``tolerance`` prefer the direct method (no memoization bookkeeping).

:func:`crossover_kernel_size` sweeps kernel sizes to locate the
FFT/direct crossover for a given image size — the quantity the paper
argues falls at *smaller* kernels for ConvNet layers than for single
convolutions because image FFTs are shared between a layer's edges
(Table II); :func:`layer_crossover_kernel_size` measures the layer-level
crossover using the amortised cost model.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from repro.graph.computation_graph import ComputationGraph
from repro.pram.costs import DEFAULT_FFT_CONSTANT
from repro.tensor.backends import FALLBACK, choose, pass_triple, registry
from repro.utils.timing import time_interleaved

__all__ = [
    "autotune_layer",
    "autotune_graph",
    "crossover_kernel_size",
    "layer_crossover_kernel_size",
]


def autotune_layer(image_shape, kernel_shape, sparsity=1,
                   repeats: int = 3, tolerance: float = 0.05
                   ) -> Tuple[str, float, float]:
    """Time every registered backend on the plan an edge at these
    shapes would run over *repeats* interleaved rounds; return
    ``(mode, t_direct, t_fft)`` in median seconds.

    A non-default backend that fails its first call (broken FFT
    library, injected fault) is not fatal: it is timed at ``inf``, so
    the layer degrades to the direct method, mirroring the per-edge
    runtime fallback (``docs/robustness.md``).
    """
    seconds = dict.fromkeys(registry, float("inf"))
    variants = {}
    for name, backend in registry.items():
        try:
            run = pass_triple(name, image_shape, kernel_shape, sparsity)
            if backend is not FALLBACK:
                run()  # probe: a backend that cannot run is timed at inf
        except Exception:
            if backend is FALLBACK:
                raise
            continue
        variants[name] = run
    for name, timing in time_interleaved(variants, repeats).items():
        seconds[name] = timing.median
    return (choose(seconds, tolerance), *seconds.values())


def autotune_graph(graph: ComputationGraph,
                   repeats: int = 3) -> Dict[str, str]:
    """Choose a conv mode per edge, one measurement per distinct
    (input shape, kernel, sparsity) layer group.

    Shapes must be propagated on *graph* beforehand (Network does this
    before calling).
    """
    modes: Dict[str, str] = {}
    group_mode: Dict[tuple, str] = {}
    for edge in graph.edges.values():
        if edge.kind != "conv":
            continue
        src = graph.nodes[edge.src]
        if src.shape is None:
            raise ValueError("propagate_shapes() before autotune_graph()")
        key = (src.shape, edge.kernel, edge.sparsity)
        if key not in group_mode:
            group_mode[key] = autotune_layer(
                src.shape, edge.kernel, edge.sparsity, repeats)[0]
        modes[edge.name] = group_mode[key]
    return modes


def crossover_kernel_size(image_shape, kernel_sizes: Sequence[int],
                          sparsity=1, repeats: int = 3) -> Optional[int]:
    """Smallest kernel size at which FFT beats direct for a *single*
    convolution triple, or None if direct wins throughout."""
    for k in sorted(kernel_sizes):
        if autotune_layer(image_shape, k, sparsity,
                          repeats)[0] != FALLBACK.name:
            return k
    return None


def layer_crossover_kernel_size(image_shape, kernel_sizes: Sequence[int],
                                f_in: int, f_out: int,
                                constant: float = DEFAULT_FFT_CONSTANT,
                                flops_ratio: float = 1.0) -> Optional[int]:
    """Smallest kernel size at which the *layer-level* FFT cost model
    (Table II, memoized — image/kernel FFTs amortised over ``f*f'``
    edges) beats the direct model.

    ``flops_ratio`` rescales direct FLOPs to account for direct
    convolution's better constant factor on real hardware (>1 favours
    direct).  With ``f_in = f_out = 1`` this reduces to the
    single-convolution crossover, demonstrating the paper's claim that
    layers cross over at smaller kernels.
    """
    for k in sorted(kernel_sizes):
        try:
            flops = {name: backend.layer_flops(f_in, f_out, image_shape, k,
                                               constant=constant)
                     for name, backend in registry.items()}
        except ValueError:  # kernel no longer fits the image
            return None
        flops[FALLBACK.name] *= flops_ratio
        if choose(flops) != FALLBACK.name:
            return k
    return None
