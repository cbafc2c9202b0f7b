"""Custom edge-operation tests (Section XI extensibility)."""

import numpy as np
import pytest

from repro.core import (
    CustomOp,
    Network,
    SGD,
    check_gradients,
    get_custom_op,
    register_custom_op,
    registered_custom_ops,
    unregister_custom_op,
)
from repro.graph import ComputationGraph


@pytest.fixture(autouse=True)
def _clean_registry():
    yield
    for name in ("square", "half-res", "scale2", "stateful"):
        unregister_custom_op(name)


def square_op():
    return register_custom_op(CustomOp(
        name="square",
        forward=lambda x, state: x * x,
        backward=lambda g, x, y, state: 2.0 * x * g), replace=True)


def chain_with(op_name, input_shape=(6, 6, 6)):
    g = ComputationGraph()
    g.add_node("in")
    g.add_node("a")
    g.add_node("out")
    g.add_edge("c", "in", "a", "conv", kernel=2)
    g.add_edge("u", "a", "out", "custom", op=op_name)
    return g


class TestRegistry:
    def test_register_and_get(self):
        op = square_op()
        assert get_custom_op("square") is op
        assert "square" in registered_custom_ops()

    def test_duplicate_rejected(self):
        square_op()
        with pytest.raises(ValueError):
            register_custom_op(CustomOp("square", lambda x, s: x,
                                        lambda g, x, y, s: g))

    def test_replace(self):
        square_op()
        op2 = register_custom_op(CustomOp("square", lambda x, s: x,
                                          lambda g, x, y, s: g),
                                 replace=True)
        assert get_custom_op("square") is op2

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            get_custom_op("warp")

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            register_custom_op(CustomOp("", lambda x, s: x,
                                        lambda g, x, y, s: g))


class TestGraphIntegration:
    def test_custom_edge_requires_op(self):
        g = ComputationGraph()
        g.add_node("a")
        g.add_node("b")
        with pytest.raises(ValueError):
            g.add_edge("e", "a", "b", "custom")

    def test_shape_preserving_by_default(self):
        square_op()
        g = chain_with("square")
        g.propagate_shapes(6)
        assert g.nodes["out"].shape == (5, 5, 5)

    def test_shape_changing_op(self):
        register_custom_op(CustomOp(
            name="half-res",
            forward=lambda x, state: x[::2, ::2, ::2].copy(),
            backward=lambda g, x, y, state: np.kron(
                g, np.ones((2, 2, 2)))[:x.shape[0], :x.shape[1],
                                       :x.shape[2]] * 0,
            output_shape=lambda s: tuple((d + 1) // 2 for d in s)),
            replace=True)
        g = chain_with("half-res")
        g.propagate_shapes(7)  # conv -> 6, half -> 3
        assert g.nodes["out"].shape == (3, 3, 3)


class TestExecution:
    def test_forward_values(self, rng):
        square_op()
        net = Network(chain_with("square"), input_shape=(6, 6, 6), seed=0)
        x = rng.standard_normal((6, 6, 6))
        out = net.forward(x)["out"]
        from repro.tensor import correlate_valid
        k = list(net.kernels().values())[0]
        np.testing.assert_allclose(out, correlate_valid(x, k) ** 2,
                                   atol=1e-12)

    def test_wrong_output_shape_detected(self, rng):
        register_custom_op(CustomOp(
            name="scale2",
            forward=lambda x, state: np.zeros((1, 1, 1)),
            backward=lambda g, x, y, state: g), replace=True)
        net = Network(chain_with("scale2"), input_shape=(6, 6, 6), seed=0)
        with pytest.raises((ValueError, RuntimeError)):
            net.forward(rng.standard_normal((6, 6, 6)))

    def test_backward_before_forward_rejected(self, rng):
        square_op()
        net = Network(chain_with("square"), input_shape=(6, 6, 6), seed=0)
        edge = net.edges["u"]
        with pytest.raises(RuntimeError):
            edge.backward(rng.standard_normal((5, 5, 5)))

    def test_state_dict_available(self, rng):
        records = []

        def fwd(x, state):
            state["mean"] = float(x.mean())
            return x + 0.0

        def bwd(g, x, y, state):
            records.append(state["mean"])
            return g + 0.0

        register_custom_op(CustomOp("stateful", fwd, bwd), replace=True)
        net = Network(chain_with("stateful"), input_shape=(6, 6, 6),
                      seed=0, optimizer=SGD(learning_rate=0.0))
        x = rng.standard_normal((6, 6, 6))
        t = np.zeros(net.nodes["out"].shape)
        net.train_step(x, t)
        assert len(records) == 1

    def test_gradcheck_through_custom_op(self, rng):
        square_op()
        net = Network(chain_with("square"), input_shape=(6, 6, 6), seed=0)
        x = rng.standard_normal((6, 6, 6))
        t = rng.standard_normal(net.nodes["out"].shape)
        report = check_gradients(net, x, t)
        assert report.ok, report.failures

    def test_training_decreases_loss(self, rng):
        square_op()
        net = Network(chain_with("square"), input_shape=(6, 6, 6), seed=0,
                      optimizer=SGD(learning_rate=1e-3))
        x = rng.standard_normal((6, 6, 6))
        t = rng.standard_normal(net.nodes["out"].shape)
        losses = [net.train_step(x, t) for _ in range(8)]
        assert losses[-1] < losses[0]

    def test_converging_custom_edges_keep_their_outputs(self, rng):
        """Two ``custom`` edges into one node: summing their
        contributions must not overwrite the ``_output`` either keeps
        for its Jacobian, in the walk as in a threaded round."""
        square_op()
        g = ComputationGraph()
        for name in ("in", "a", "b", "out"):
            g.add_node(name)
        g.add_edge("ca", "in", "a", "conv", kernel=2)
        g.add_edge("cb", "in", "b", "conv", kernel=2)
        g.add_edge("ua", "a", "out", "custom", op="square")
        g.add_edge("ub", "b", "out", "custom", op="square")
        x = rng.standard_normal((6, 6, 6))

        def assert_outputs_kept(net):
            for name in ("ua", "ub"):
                edge = net.edges[name]
                assert edge._output.tobytes() == (
                    edge._input * edge._input).tobytes(), name

        net = Network(g, input_shape=(6, 6, 6), seed=0)
        net.forward(x)
        assert_outputs_kept(net)
        with Network(g, input_shape=(6, 6, 6), seed=0,
                     num_workers=2) as net:
            net.train_step(x, np.zeros(net.nodes["out"].shape))
            assert_outputs_kept(net)
