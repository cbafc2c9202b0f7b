"""End-to-end integration tests: the full system exercised the way the
paper uses it."""

import numpy as np
import pytest

from repro import (
    Network,
    PatchProvider,
    RandomProvider,
    SGD,
    Trainer,
    build_layered_network,
)
from repro.data import make_cell_volume, pixel_error


class TestPaper3DArchitecture:
    """The Section VIII 3D benchmark net, trained for real (small
    width/input for test speed)."""

    def test_trains_and_infers(self, rng):
        graph = build_layered_network("CTMCTMCTCT", width=2, kernel=3,
                                      window=2, skip_kernels=True,
                                      transfer="relu",
                                      final_transfer="linear",
                                      output_nodes=1)
        net = Network(graph, input_shape=(30, 30, 30), conv_mode="direct",
                      seed=0, optimizer=SGD(learning_rate=1e-4))
        provider = RandomProvider((30, 30, 30),
                                  net.output_nodes[0].shape, seed=1)
        report = Trainer(net, provider).run(rounds=3, warmup=1)
        assert report.rounds == 3
        assert all(np.isfinite(l) for l in report.losses)
        x, _ = provider.sample()
        out = net.forward(x)
        assert list(out.values())[0].shape == net.output_nodes[0].shape
        net.close()


class TestBoundaryDetectionPipeline:
    def test_learns_above_chance(self, rng):
        """Short version of examples/boundary_detection_3d.py: the loss
        must drop and held-out pixel error must beat chance = 0.5."""
        volume = make_cell_volume(shape=36, num_cells=10, noise=0.05,
                                  seed=1)
        volume.image[:] = ((volume.image - volume.image.mean())
                           / volume.image.std())
        graph = build_layered_network("CTCT", width=4, kernel=3,
                                      transfer="tanh",
                                      final_transfer="linear",
                                      output_nodes=1)
        net = Network(graph, input_shape=(16, 16, 16), conv_mode="auto",
                      loss="binary-logistic", seed=0,
                      optimizer=SGD(learning_rate=2e-3, momentum=0.9))
        out_shape = net.output_nodes[0].shape
        provider = PatchProvider(volume, (16, 16, 16), out_shape, seed=2)
        report = Trainer(net, provider).run(rounds=40)
        assert np.mean(report.losses[-5:]) < np.mean(report.losses[:5])

        out_name = net.output_nodes[0].name
        errors = []
        for _ in range(5):
            patch, target = provider.sample()
            logits = net.forward(patch)[out_name]
            prob = 1 / (1 + np.exp(-logits))
            errors.append(pixel_error(prob, target))
        assert np.mean(errors) < 0.5
        net.close()


class TestMultiWorkerDeterminism:
    @pytest.mark.parametrize("scheduler", ["priority", "fifo",
                                           "work-stealing"])
    def test_full_training_parity_across_engines(self, rng, scheduler):
        """5 rounds of training must produce bit-identical weights on
        the serial engine and any threaded scheduler (float addition
        order is fixed by the wait-free sum's in-order determinism in
        our per-round reset design — contributions commute only up to
        fp rounding, so we allow 1e-8)."""
        x = rng.standard_normal((12, 12, 12))

        def final_kernels(num_workers, sched="priority"):
            graph = build_layered_network("CTMCT", width=3, kernel=2,
                                          window=2, transfer="tanh")
            net = Network(graph, input_shape=(12, 12, 12), seed=3,
                          num_workers=num_workers, scheduler=sched,
                          conv_mode="fft",
                          optimizer=SGD(learning_rate=0.01))
            targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
            for _ in range(5):
                net.train_step(x, targets)
            net.synchronize()
            kernels = net.kernels()
            net.close()
            return kernels

        ref = final_kernels(1)
        got = final_kernels(3, scheduler)
        for k in ref:
            np.testing.assert_allclose(ref[k], got[k], atol=1e-8)


class TestMemoizationAccounting:
    def test_memoized_round_uses_fewer_ffts(self, rng):
        """Count actual FFT computations per round with and without
        memoization — the Table II '(Memoized)' effect in vivo."""

        x = rng.standard_normal((10, 10, 10))

        def train(memoize):
            graph = build_layered_network("CTC", width=3, kernel=2,
                                          transfer="tanh")
            net = Network(graph, input_shape=(10, 10, 10),
                          conv_mode="fft", memoize=memoize, seed=0)
            targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
            net.train_step(x, targets)
            net.synchronize()
            return net.cache.stats.computed, net.kernels()

        memo_ffts, memo_kernels = train(True)
        plain_ffts, plain_kernels = train(False)
        # Table II predicts a third of the FFT FLOPs; in transform
        # counts (spectra shared by fwd/bwd/update) the saving is larger.
        assert memo_ffts < 0.8 * plain_ffts
        for name, kernel in memo_kernels.items():  # same training result
            np.testing.assert_allclose(kernel, plain_kernels[name],
                                       atol=1e-9)

    def test_memoized_spectra_reused_across_passes(self, rng):
        graph = build_layered_network("CTC", width=3, kernel=2)
        net = Network(graph, input_shape=(10, 10, 10), conv_mode="fft",
                      seed=0)
        x = rng.standard_normal((10, 10, 10))
        targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
        net.train_step(x, targets)
        net.synchronize()
        assert net.cache.stats.reuse_fraction > 0.3


class TestArbitraryTopology:
    def test_skip_connection_network(self, rng):
        """'ZNN can efficiently train a ConvNet with an arbitrary
        topology' — a residual-style skip via convergent convs."""
        from repro.graph import ComputationGraph
        g = ComputationGraph()
        g.add_node("in")
        g.add_node("mid")
        g.add_node("midT")
        g.add_node("out")
        g.add_edge("c1", "in", "mid", "conv", kernel=3)
        g.add_edge("t1", "mid", "midT", "transfer", transfer="tanh")
        g.add_edge("c2", "midT", "out", "conv", kernel=3)
        g.add_edge("skip", "in", "out", "conv", kernel=5)  # same shrink
        net = Network(g, input_shape=(12, 12, 12), seed=0,
                      optimizer=SGD(learning_rate=1e-3))
        x = rng.standard_normal((12, 12, 12))
        t = np.zeros(net.nodes["out"].shape)
        losses = [net.train_step(x, t) for _ in range(10)]
        assert losses[-1] < losses[0]
