#!/usr/bin/env python
"""2D boundary detection — the paper's 2D special case with FFT
convolution.

"2D images are a special case in which one of the dimensions has size
one" (Section II); the paper's 2D benchmarks use FFT convolution with
larger (11x11) kernels.  This example trains a compact 2D max-filter
net with 7x7 kernels — big enough that the autotuner picks FFT — on a
synthetic 2D cell image, and shows sparse-lattice ("sparse training")
versus dense evaluation.

Run:  python examples/train_2d_boundary.py
"""

import numpy as np

from repro import Network, PatchProvider, SGD, Trainer, build_layered_network
from repro.core import sparse_lattice
from repro.data import boundary_scores, make_cell_volume, pixel_error


def main() -> None:
    # A 2D "EM section": one z-slice, 160^2 pixels, ~40 cells.
    volume = make_cell_volume(shape=(1, 160, 160), num_cells=40,
                              noise=0.08, seed=3)
    volume.image[:] = (volume.image - volume.image.mean()) / volume.image.std()
    print(f"2D section {volume.shape[1:]}, membrane fraction "
          f"{volume.boundary_fraction():.2f}")

    # CTMCT with 7x7 kernels; skip-kernels make it a dense-output net.
    graph = build_layered_network(
        "CTMCT", width=6, kernel=(1, 7, 7), window=(1, 2, 2),
        transfer="tanh", final_transfer="linear", skip_kernels=True,
        output_nodes=1)
    input_shape = (1, 40, 40)
    net = Network(graph, input_shape=input_shape, conv_mode="auto",
                  loss="binary-logistic", seed=0,
                  optimizer=SGD(learning_rate=5e-4, momentum=0.9))
    out_name = net.output_nodes[0].name
    out_shape = net.output_nodes[0].shape
    modes = sorted(set(net.conv_modes.values()))
    print(f"output patch {out_shape[1:]}, autotuned conv modes: {modes}")

    provider = PatchProvider(volume, input_shape, out_shape, seed=4)
    voxels = float(np.prod(out_shape))
    Trainer(net, provider).run(
        rounds=120,
        callback=lambda i, l: print(f"round {i:3d}  loss/pixel "
                                    f"{l / voxels:.3f}")
        if i % 30 == 0 else None)

    # Dense evaluation on a held-out section.
    test = make_cell_volume(shape=(1, 80, 80), num_cells=12, noise=0.08,
                            seed=5)
    test.image[:] = (test.image - test.image.mean()) / test.image.std()
    eval_provider = PatchProvider(test, input_shape, out_shape, seed=6)
    errors, f1s = [], []
    for _ in range(8):
        patch, target = eval_provider.sample()
        prob = 1 / (1 + np.exp(-net.forward(patch)[out_name]))
        errors.append(pixel_error(prob, target))
        f1s.append(boundary_scores(prob, target).f1)
    print(f"held-out pixel error {np.mean(errors):.3f}, "
          f"membrane F1 {np.mean(f1s):.3f}")

    # Sparse training view: the period-2 lattice of the dense output is
    # what a max-pooling net trained "sparsely" would predict.
    patch, _ = eval_provider.sample()
    dense = net.forward(patch)[out_name]
    lattice = sparse_lattice(dense, (1, 2, 2))
    print(f"dense output {dense.shape[1:]} -> period-2 lattice "
          f"{lattice.shape[1:]} (sparse-training view)")
    net.close()


if __name__ == "__main__":
    main()
