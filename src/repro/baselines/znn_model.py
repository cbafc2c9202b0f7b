"""ZNN-CPU cost model for the GPU comparison (Section IX).

The paper runs ZNN on an 18-core EC2 c4.8xlarge with FFT convolution
(chosen by the autotuner for both 2D and 3D).  We model seconds/update
as the Table II FFT(Memoized) FLOPs of the benchmark network divided by
the machine's effective throughput, plus the per-task scheduling
overhead; the throughput calibration (fraction of peak achieved by MKL
FFTs) is the single tuned constant.

:func:`comparison_layers` derives the per-layer shapes of the
Section IX benchmark architecture ``CTPCTPCTCTCTCT`` (width 40) for a
given kernel size and output-patch size under *sparse training*
(predictions on a period-4 lattice, so the GPU nets process the pooled
pyramid and ZNN the equivalent work).
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.baselines.gpu_model import ConvLayerShape
from repro.graph.builders import Layer, LayeredSpec
from repro.pram.costs import (
    DEFAULT_FFT_CONSTANT,
    conv_layer_costs_direct,
    conv_layer_costs_fft,
    pooling_layer_costs,
    transfer_layer_costs,
)
from repro.simulate.machine import MachineSpec, get_machine
from repro.utils.shapes import Shape3, as_shape3, input_shape_for_output

__all__ = [
    "COMPARISON_SPEC",
    "comparison_layers",
    "znn_seconds_per_update",
]

#: The Section IX benchmark: 6 conv layers, 2 max-poolings, width 40.
COMPARISON_SPEC = "CTPCTPCTCTCTCT"

#: Fraction of a Xeon core's peak the MKL FFT path sustains.
ZNN_FFT_EFFICIENCY = 0.20
#: Fraction sustained by ZNN's direct (SIMD) path.
ZNN_DIRECT_EFFICIENCY = 0.55


def comparison_geometry(dims: int, kernel_size: int, output_size: int
                        ) -> Tuple[Shape3, Shape3, Shape3]:
    """(kernel, window, output patch) of the comparison net in *dims*
    dimensions (2D is the ``(1, n, n)`` case)."""
    if dims not in (2, 3):
        raise ValueError(f"dims must be 2 or 3, got {dims}")
    return (as_shape3((kernel_size,) * dims), as_shape3((2,) * dims),
            as_shape3((output_size,) * dims))


def conv_layer_shapes(layers: Iterable[Layer], input_shape: Shape3
                      ) -> List[ConvLayerShape]:
    """Walk *layers* forward from *input_shape*; one row per conv
    layer."""
    shapes: List[ConvLayerShape] = []
    for layer in layers:
        output_shape = layer.output_shape(input_shape)
        if layer.kind == "conv":
            shapes.append(ConvLayerShape(
                f_in=layer.f_in, f_out=layer.f_out, input_shape=input_shape,
                output_shape=output_shape, kernel_shape=layer.window))
        input_shape = output_shape
    return shapes


def comparison_layers(dims: int, kernel_size: int, output_size: int,
                      width: int = 40) -> List[ConvLayerShape]:
    """Per-conv-layer shapes of the comparison net.

    ``dims``: 2 or 3.  ``kernel_size``/``output_size``: linear sizes
    (the paper's 10–40 / 1–64 in 2D, 3–7 / 1–8 in 3D).
    """
    kernel, window, out = comparison_geometry(dims, kernel_size,
                                              output_size)
    layers = list(LayeredSpec(COMPARISON_SPEC, width, kernel,
                              window).layers())
    in_size = input_shape_for_output(
        out, ((layer.kind, layer.window, layer.sparsity)
              for layer in layers))
    return conv_layer_shapes(layers, in_size)


def znn_seconds_per_update(layers: List[ConvLayerShape],
                           machine: MachineSpec | str = "xeon-18",
                           mode: str = "fft-memo",
                           constant: float = DEFAULT_FFT_CONSTANT) -> float:
    """Modelled ZNN seconds per update on *machine*.

    The whole-update FLOPs (all three passes, conv layers plus the
    cheap pooling/transfer layers) are divided by the machine's
    aggregate throughput at its full hardware thread count scaled by
    the path's sustained-efficiency constant, and each conv task is
    charged the scheduling overhead.
    """
    if isinstance(machine, str):
        machine = get_machine(machine)
    total_flops = 0.0
    tasks = 0
    for layer in layers:
        if mode == "direct":
            costs = conv_layer_costs_direct(layer.f_in, layer.f_out,
                                            layer.input_shape,
                                            layer.kernel_shape)
        else:
            costs = conv_layer_costs_fft(layer.f_in, layer.f_out,
                                         layer.input_shape,
                                         memoized=(mode == "fft-memo"),
                                         constant=constant)
        total_flops += costs.total
        # transfer layer following each conv layer
        total_flops += transfer_layer_costs(layer.f_out,
                                            layer.output_shape).total
        tasks += 3 * layer.f_in * layer.f_out + 3 * layer.f_out
    # the two pooling layers (cheap, but counted)
    total_flops += 2 * pooling_layer_costs(
        layers[0].f_out, layers[0].output_shape).total

    efficiency = (ZNN_DIRECT_EFFICIENCY if mode == "direct"
                  else ZNN_FFT_EFFICIENCY)
    flops_per_second = (machine.throughput(machine.threads)
                        * machine.gflops_per_core * 1e9 * efficiency)
    overhead_flops = tasks * machine.sync_overhead
    return (total_flops + overhead_flops) / flops_per_second
