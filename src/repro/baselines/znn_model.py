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

from typing import List, Tuple

from repro.baselines.gpu_model import ConvLayerShape
from repro.graph.builders import build_layered_network
from repro.pram.costs import (
    DEFAULT_FFT_CONSTANT,
    conv_layer_costs_direct,
    conv_layer_costs_fft,
    filtering_layer_costs,
    pooling_layer_costs,
    transfer_layer_costs,
)
from repro.simulate.machine import MachineSpec, get_machine
from repro.utils.shapes import as_shape3, input_shape_for_output

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


def comparison_layers(dims: int, kernel_size: int, output_size: int,
                      width: int = 40) -> List[ConvLayerShape]:
    """Per-conv-layer shapes of the comparison net.

    ``dims``: 2 or 3.  ``kernel_size``/``output_size``: linear sizes
    (the paper's 10–40 / 1–64 in 2D, 3–7 / 1–8 in 3D).
    """
    if dims == 2:
        kernel = (1, kernel_size, kernel_size)
        window = (1, 2, 2)
        out = (1, output_size, output_size)
    elif dims == 3:
        kernel = (kernel_size,) * 3
        window = (2, 2, 2)
        out = (output_size,) * 3
    else:
        raise ValueError(f"dims must be 2 or 3, got {dims}")

    layers = []
    for c in COMPARISON_SPEC:
        if c == "C":
            layers.append(("conv", kernel, 1))
        elif c == "P":
            layers.append(("pool", window, 1))
        elif c == "T":
            layers.append(("transfer", 1, 1))
    in_size = input_shape_for_output(out, layers)

    # Per-layer image shapes are width-independent: propagate through a
    # width-1 build and read them off layer by layer.
    graph = build_layered_network(COMPARISON_SPEC, width=1, kernel=kernel,
                                  window=window)
    graph.propagate_shapes(in_size)
    layer_shape = {node.layer: node.shape
                   for node in graph.nodes.values()}

    shapes: List[ConvLayerShape] = []
    f_in = 1  # single input image
    for layer_index, c in enumerate(COMPARISON_SPEC, start=1):
        if c != "C":
            continue
        shapes.append(ConvLayerShape(
            f_in=f_in, f_out=width,
            input_shape=layer_shape[layer_index - 1],
            output_shape=layer_shape[layer_index],
            kernel_shape=as_shape3(kernel)))
        f_in = width
    return shapes


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
