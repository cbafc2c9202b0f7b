"""Brent's theorem and the theoretically achievable speedup (Section V-A).

Brent's theorem [17]: a computation doable in ``T_inf`` on infinitely
many PRAM processors satisfies ``T_P <= T_inf + (T_1 - T_inf) / P``,
giving the speedup lower bound of Eq. (2):

    S_P >= S_inf / (1 + (S_inf - 1) / P),       S_inf = T_1 / T_inf.

For layered fully-connected ConvNets we evaluate ``T_1`` by summing the
layer costs of Tables I–II and ``T_inf`` with the infinite-processor
schedule of Section V-A: layers sequential, everything within a layer
parallel (with the ``ceil(log2 f)`` binary-collapse term for convergent
sums), forward + backward + the *max* of the update times.

:func:`achievable_speedup_curve` is one line of Fig 4 (kernel 5^3, FFT
constant C = 5, widths 1–120, depths 4–40, P in {8, 18, 40, 60, 120});
:func:`repro.reporting.figure4` draws the figure from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.pram.costs import (
    DEFAULT_FFT_CONSTANT,
    conv_layer_costs_direct,
    conv_layer_costs_fft,
    conv_layer_tinf,
    nonconv_layer_tinf,
    transfer_layer_costs,
)
from repro.utils.shapes import as_shape3

__all__ = [
    "brent_time_bound",
    "brent_speedup_bound",
    "NetworkTimes",
    "layered_network_times",
    "achievable_speedup",
    "achievable_speedup_curve",
    "FIG4_PROCESSORS",
    "FIG4_DEPTHS",
]

FIG4_PROCESSORS = (8, 18, 40, 60, 120)
FIG4_DEPTHS = (4, 8, 16, 24, 32, 40)


def brent_time_bound(t1: float, tinf: float, processors: int) -> float:
    """Brent's bound: ``T_P <= T_inf + (T_1 - T_inf) / P``."""
    if processors < 1:
        raise ValueError(f"processors must be >= 1, got {processors}")
    if tinf > t1:
        raise ValueError(f"T_inf ({tinf}) cannot exceed T_1 ({t1})")
    return tinf + (t1 - tinf) / processors


def brent_speedup_bound(t1: float, tinf: float, processors: int) -> float:
    """Eq. (2): the theoretically achievable speedup."""
    if tinf <= 0:
        raise ValueError(f"T_inf must be > 0, got {tinf}")
    s_inf = t1 / tinf
    return s_inf / (1.0 + (s_inf - 1.0) / processors)


@dataclass(frozen=True)
class NetworkTimes:
    """T_1 and T_inf of one learning iteration of a layered network."""

    t1: float
    tinf: float

    @property
    def s_inf(self) -> float:
        return self.t1 / self.tinf


def layered_network_times(width: int, depth: int,
                          image_size: int | Sequence[int] = 16,
                          kernel: int | Sequence[int] = 5,
                          mode: str = "direct",
                          constant: float = DEFAULT_FFT_CONSTANT,
                          include_transfer: bool = True) -> NetworkTimes:
    """T_1 / T_inf for *depth* fully-connected conv layers of *width*
    (each followed by a transfer layer), per Section V-A.

    The first conv layer maps 1 -> width; the rest width -> width.  All
    layers see the same image size (the analysis ignores the small
    valid-convolution shrinkage, as the paper's plots do).
    """
    if width < 1 or depth < 1:
        raise ValueError("width and depth must be >= 1")
    n = as_shape3(image_size, name="image_size")
    k = as_shape3(kernel, name="kernel")

    t1 = 0.0
    fwd_inf = bwd_inf = 0.0
    upd_inf_max = 0.0
    f_in = 1
    for _ in range(depth):
        if mode == "direct":
            layer = conv_layer_costs_direct(f_in, width, n, k)
        else:
            layer = conv_layer_costs_fft(f_in, width, n,
                                         memoized=(mode == "fft-memo"),
                                         constant=constant)
        tinf = conv_layer_tinf(f_in, width, n, k, mode=mode,
                               constant=constant)
        t1 += layer.total
        fwd_inf += tinf.forward
        bwd_inf += tinf.backward
        upd_inf_max = max(upd_inf_max, tinf.update)
        if include_transfer:
            xfer = transfer_layer_costs(width, n)
            xinf = nonconv_layer_tinf("transfer", n)
            t1 += xfer.total
            fwd_inf += xinf.forward
            bwd_inf += xinf.backward
            upd_inf_max = max(upd_inf_max, xinf.update)
        f_in = width
    return NetworkTimes(t1=t1, tinf=fwd_inf + bwd_inf + upd_inf_max)


def achievable_speedup(processors: int, width: int, depth: int,
                       image_size: int | Sequence[int] = 16,
                       kernel: int | Sequence[int] = 5,
                       mode: str = "direct",
                       constant: float = DEFAULT_FFT_CONSTANT) -> float:
    """One point of Fig 4."""
    times = layered_network_times(width, depth, image_size, kernel, mode,
                                  constant)
    return brent_speedup_bound(times.t1, times.tinf, processors)


def achievable_speedup_curve(processors: int,
                             widths: Sequence[int],
                             depth: int = 8,
                             image_size: int | Sequence[int] = 16,
                             kernel: int | Sequence[int] = 5,
                             mode: str = "direct",
                             constant: float = DEFAULT_FFT_CONSTANT
                             ) -> List[float]:
    """One line of Fig 4: achievable speedup vs network width."""
    return [achievable_speedup(processors, w, depth, image_size, kernel,
                               mode, constant) for w in widths]
