"""Table II — complexity of a fully connected convolutional layer:
Direct vs FFT-based vs FFT-based (Memoized).

Prints the model FLOPs for the three methods per pass, and benchmarks
the real per-edge implementations (one forward + backward + update
triple) in direct and FFT mode.  The measured direct/FFT wall-time
ratio must move in the direction the FLOP model predicts as the kernel
grows.
"""

import numpy as np
import pytest

from _bench_utils import fmt, full_run, print_table
from repro.core import time_passes
from repro.pram import conv_layer_costs_direct, conv_layer_costs_fft

N = 24
F = 4
KERNELS = (3, 5, 7) if not full_run() else (3, 5, 7, 9, 11)


def test_print_table2():
    rows = []
    for k in KERNELS:
        direct = conv_layer_costs_direct(F, F, N, k)
        fft = conv_layer_costs_fft(F, F, N, memoized=False)
        memo = conv_layer_costs_fft(F, F, N, memoized=True)
        rows.append([f"{k}^3", fmt(direct.total), fmt(fft.total),
                     fmt(memo.total),
                     fmt(memo.total / fft.total, 3)])
    print_table(f"Table II totals (f=f'={F}, n={N}^3)",
                ["kernel", "direct", "fft", "fft-memo", "memo/fft"], rows)
    # Memoization removes FFT work: strictly cheaper, and at most the
    # documented one-third of the FFT terms.
    fft = conv_layer_costs_fft(F, F, N, memoized=False)
    memo = conv_layer_costs_fft(F, F, N, memoized=True)
    assert memo.total < fft.total
    assert memo.total / fft.total > 2 / 3 - 0.05


def test_measured_ratio_tracks_model():
    """Wall-time direct/FFT ratio grows with kernel size like the FLOP
    ratio does (we assert monotonicity, not absolute agreement)."""
    measured = []
    modeled = []
    for k in (3, 7):
        measured.append(time_passes("direct", N, k, repeats=2)
                        / time_passes("fft", N, k, repeats=2))
        modeled.append(conv_layer_costs_direct(1, 1, N, k).total
                       / conv_layer_costs_fft(1, 1, N).total)
    print_table("direct/FFT ratios (measured vs FLOP model)",
                ["kernel", "measured", "model"],
                [[f"{k}^3", fmt(m), fmt(mo)]
                 for k, m, mo in zip((3, 7), measured, modeled)])
    assert measured[1] > measured[0]
    assert modeled[1] > modeled[0]


def test_bench_direct_triple(benchmark):
    benchmark(time_passes, "direct", N, 5, 1, 1)


def test_bench_fft_triple(benchmark):
    benchmark(time_passes, "fft", N, 5, 1, 1)
