#!/usr/bin/env python
"""Fig 2: sliding-window max-pooling net ≡ max-filtering net with
sparse convolution.

Dense prediction with a max-pooling ConvNet means applying it at every
window position of a large image — the naive approach recomputes
overlapping work.  The efficient equivalent (skip-kernels / filter
rarefaction) replaces max-pooling with max-filtering and dilates all
subsequent convolutions; this script demonstrates that the two produce
*identical* outputs and compares their FLOP counts and their
wall-clock (medians of interleaved rounds, with each side's A/A spread).

Run:  python examples/sliding_window_inference.py
"""

import numpy as np

from repro import Network, build_layered_network
from repro.core import dense_equivalent_network, sliding_window_forward
from repro.pram import direct_conv_task_cost
from repro.utils import voxels
from repro.utils.timing import time_interleaved

ROUNDS = 9


def main() -> None:
    spec = "CTPCTPCT"  # two poolings: period-4 output lattice
    kw = dict(width=[3, 3, 1], kernel=2, window=2, transfer="tanh")

    # Window-sized net: choose the input so the output is one voxel.
    # conv2(-1) pool2(/2) conv2(-1) pool2(/2) conv2(-1):
    #   1 -> 2 -> 4 -> 5 -> 10 -> 11 : field of view 11^3.
    pool_graph = build_layered_network(spec, **kw)
    pool_net = Network(pool_graph, input_shape=(11, 11, 11),
                       conv_mode="direct", seed=5)
    print(f"max-pooling window net: field of view 11^3, "
          f"{len(pool_net.edges)} edges")

    big = np.random.default_rng(0).normal(size=(16, 16, 16))

    dense_net = dense_equivalent_network(pool_net, spec,
                                         input_shape=big.shape, **kw)
    outputs = {}

    def naive():
        outputs["naive"] = sliding_window_forward(pool_net, big)

    def fast():
        (outputs["fast"],) = dense_net.forward(big).values()

    timing = time_interleaved({"naive": naive, "fast": fast}, ROUNDS)
    dense_ref, dense_fast = outputs["naive"], outputs["fast"]
    t_naive, t_fast = timing["naive"].median, timing["fast"].median

    err = float(np.abs(dense_fast - dense_ref).max())
    print(f"dense output {dense_ref.shape}; max |difference| = {err:.2e}")
    assert err < 1e-9, "equivalence violated!"

    n_windows = voxels(dense_ref.shape)
    print(f"naive sliding window: {n_windows} network evaluations, "
          f"{t_naive:.3f}s (median of {ROUNDS})")
    print(f"max-filter + sparse conv: 1 evaluation, {t_fast:.4f}s "
          f"({t_naive / t_fast:.0f}x faster; A/A spread naive "
          f"{timing['naive'].spread:+.1%}, fast "
          f"{timing['fast'].spread:+.1%})")

    # FLOP accounting for the first conv layer alone:
    per_window = direct_conv_task_cost((11, 11, 11), 2)
    naive_flops = n_windows * per_window
    dense_flops = direct_conv_task_cost(big.shape, 2)
    print(f"first-layer FLOPs: naive {naive_flops:.3g} vs dense "
          f"{dense_flops:.3g} ({naive_flops / dense_flops:.0f}x saved)")
    pool_net.close()
    dense_net.close()


if __name__ == "__main__":
    main()
