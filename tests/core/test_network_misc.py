"""Additional Network behaviours: multi-input training, mixed modes,
FFT training at awkward sizes, deterministic mode interactions,
context-manager lifecycle."""

import numpy as np
import pytest

from repro.core import Network, SGD, check_gradients
from repro.graph import ComputationGraph, build_layered_network


def two_input_graph():
    g = ComputationGraph()
    g.add_node("img")
    g.add_node("aux")
    g.add_node("mix")
    g.add_node("mixT")
    g.add_node("out")
    g.add_edge("c1", "img", "mix", "conv", kernel=3)
    g.add_edge("c2", "aux", "mix", "conv", kernel=3)
    g.add_edge("t", "mix", "mixT", "transfer", transfer="tanh")
    g.add_edge("c3", "mixT", "out", "conv", kernel=2)
    return g


def two_by_two_graph():
    g = ComputationGraph()
    for name in ("a", "b", "p", "q"):
        g.add_node(name)
    g.add_edge("ap", "a", "p", "conv", kernel=2)
    g.add_edge("bp", "b", "p", "conv", kernel=2)
    g.add_edge("aq", "a", "q", "conv", kernel=2)
    return g


class TestArgumentMessages:
    """The exact ValueError text for malformed inputs and targets."""

    @staticmethod
    def call(net, kind, value):
        if kind == "input":
            return net.forward(value)
        inputs = {n.name: np.zeros(n.shape) for n in net.input_nodes}
        return net.train_step(inputs, value)

    @pytest.mark.parametrize("kind, role, first, second, shape", [
        ("input", "input", "a", "b", (6, 6, 6)),
        ("target", "output", "p", "q", (5, 5, 5)),
    ])
    @pytest.mark.parametrize("case", ["bare", "missing", "shape", "ndim"])
    def test_two_node_message(self, kind, role, first, second, shape,
                              case):
        net = Network(two_by_two_graph(), input_shape=(6, 6, 6), seed=0)
        good = np.zeros(shape)
        value, message = {
            "bare": (good, f"network has 2 {role} nodes; "
                           f"pass a dict of {kind}s"),
            "missing": ({first: good},
                        f"missing {kind} for node {second!r}"),
            "shape": ({first: good, second: np.zeros((4, 4, 4))},
                      f"{kind} {second!r} has shape (4, 4, 4), "
                      f"expected {shape}"),
            "ndim": ({first: np.zeros((1,) + shape), second: good},
                     f"{kind} {first!r} must be at most 3-dimensional, "
                     "got ndim=4"),
        }[case]
        with pytest.raises(ValueError) as info:
            self.call(net, kind, value)
        assert str(info.value) == message

    @pytest.mark.parametrize("kind, shape", [("input", (6, 6, 6)),
                                             ("target", (5, 5, 5))])
    def test_bare_non_3d_message(self, kind, shape):
        graph = build_layered_network("CT", width=1, kernel=2)
        net = Network(graph, input_shape=(6, 6, 6), seed=0)
        with pytest.raises(ValueError) as info:
            self.call(net, kind, np.zeros((1,) + shape))
        assert str(info.value) == (
            f"{kind} must be at most 3-dimensional, got ndim=4")


class TestMultiInput:
    def test_trains_with_two_inputs(self, rng):
        net = Network(two_input_graph(), input_shape=(10, 10, 10), seed=0,
                      optimizer=SGD(learning_rate=1e-3))
        inputs = {"img": rng.standard_normal((10, 10, 10)),
                  "aux": rng.standard_normal((10, 10, 10))}
        t = np.zeros(net.nodes["out"].shape)
        losses = [net.train_step(inputs, t) for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_gradients_correct(self, rng):
        net = Network(two_input_graph(), input_shape=(10, 10, 10), seed=1)
        inputs = {"img": rng.standard_normal((10, 10, 10)),
                  "aux": rng.standard_normal((10, 10, 10))}
        t = {"out": rng.standard_normal(net.nodes["out"].shape)}
        report = check_gradients(net, inputs, t, kernel_samples=1)
        assert report.ok, report.failures

    def test_array_input_rejected_for_multi_input(self, rng):
        net = Network(two_input_graph(), input_shape=(10, 10, 10), seed=0)
        with pytest.raises(ValueError):
            net.forward(rng.standard_normal((10, 10, 10)))


class TestUnpaddedFftTraining:
    """FFT training at an awkward (prime) size, which no plan pads."""

    def test_training_parity_with_plain_fft(self, rng):
        x = rng.standard_normal((13, 13, 13))

        def run(mode):
            graph = build_layered_network("CTC", width=2, kernel=2,
                                          transfer="tanh")
            net = Network(graph, input_shape=(13, 13, 13), conv_mode=mode,
                          seed=4, optimizer=SGD(learning_rate=0.01))
            targets = {n.name: np.zeros(n.shape)
                       for n in net.output_nodes}
            losses = [net.train_step(x, targets) for _ in range(3)]
            net.synchronize()
            return losses, net.kernels()

        la, ka = run("direct")
        lb, kb = run("fft")
        np.testing.assert_allclose(la, lb, atol=1e-8)
        for k in ka:
            np.testing.assert_allclose(ka[k], kb[k], atol=1e-9)

    def test_padded_transform_shapes(self):
        graph = build_layered_network("CT", width=1, kernel=2)
        net = Network(graph, input_shape=(13, 13, 13), conv_mode="fft",
                      seed=0)
        conv = next(e for e in net.edges.values() if hasattr(e, "plan")
                    and e.plan is not None)
        assert conv.plan.transform_shape == (13, 13, 13)


class TestDeterministicInteractions:
    def test_deterministic_with_fft_and_spectral_sums(self, rng):
        """OrderedSum must handle complex spectra (spectral-domain
        convergence) too."""
        graph = build_layered_network("CTC", width=3, kernel=2)
        net = Network(graph, input_shape=(10, 10, 10), conv_mode="fft",
                      seed=0)
        x = rng.standard_normal((10, 10, 10))
        a = net.forward(x)
        graph2 = build_layered_network("CTC", width=3, kernel=2)
        ref = Network(graph2, input_shape=(10, 10, 10), conv_mode="direct",
                      seed=0).forward(x)
        for k in a:
            np.testing.assert_allclose(a[k], ref[k], atol=1e-9)

    def test_deterministic_with_work_stealing(self, rng):
        x = rng.standard_normal((10, 10, 10))

        def run(sched):
            graph = build_layered_network("CTC", width=3, kernel=2)
            net = Network(graph, input_shape=(10, 10, 10), seed=6,
                          num_workers=3, scheduler=sched,
                          optimizer=SGD(learning_rate=0.01))
            targets = {n.name: np.zeros(n.shape)
                       for n in net.output_nodes}
            losses = [net.train_step(x, targets) for _ in range(2)]
            net.synchronize()
            kernels = net.kernels()
            net.close()
            return losses, kernels

        la, ka = run("priority")
        lb, kb = run("work-stealing")
        assert la == lb  # bitwise across schedulers
        for k in ka:
            np.testing.assert_array_equal(ka[k], kb[k])


class TestLifecycle:
    def test_context_manager(self, rng):
        graph = build_layered_network("CT", width=1, kernel=2)
        with Network(graph, input_shape=(6, 6, 6), seed=0,
                     num_workers=2) as net:
            out = net.forward(rng.standard_normal((6, 6, 6)))
            assert out

    def test_outputs_accessor(self, rng):
        graph = build_layered_network("CT", width=1, kernel=2)
        net = Network(graph, input_shape=(6, 6, 6), seed=0)
        assert net.outputs() == {}
        net.forward(rng.standard_normal((6, 6, 6)))
        assert len(net.outputs()) == 1

    def test_set_kernel_validates_shape(self):
        graph = build_layered_network("CT", width=1, kernel=2)
        net = Network(graph, input_shape=(6, 6, 6), seed=0)
        name = next(n for n, e in net.edges.items() if hasattr(e, "kernel"))
        with pytest.raises(ValueError):
            net.set_kernel(name, np.zeros((3, 3, 3)))

    def test_set_bias_on_conv_rejected(self):
        graph = build_layered_network("CT", width=1, kernel=2)
        net = Network(graph, input_shape=(6, 6, 6), seed=0)
        conv = next(n for n, e in net.edges.items() if hasattr(e, "kernel"))
        with pytest.raises(ValueError):
            net.set_bias(conv, 1.0)
