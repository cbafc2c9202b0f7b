"""Runtime edge unit tests (transforms in isolation)."""

import numpy as np
import pytest

import repro.core.edges as edges_module
from repro.core import SGD, Network, state_digest
from repro.core.edges import (
    ConvEdge,
    DropoutEdge,
    MaxWindowEdge,
    SharedKernel,
    TransferEdge,
    make_runtime_edge,
)
from repro.core.nodes import RuntimeNode
from repro.graph import build_layered_network
from repro.graph.computation_graph import EdgeSpec, NodeSpec
from repro.tensor import correlate_valid
from repro.tensor.backends import registry


def node(name, shape):
    spec = NodeSpec(name=name)
    spec.shape = shape
    return RuntimeNode(spec)


def conv_edge(mode="direct", kernel_shape=(2, 2, 2), sparsity=1,
              src_shape=(6, 6, 6), seed=0):
    rng = np.random.default_rng(seed)
    spec = EdgeSpec(name="e", src="u", dst="v", kind="conv",
                    kernel=kernel_shape, sparsity=(sparsity,) * 3
                    if isinstance(sparsity, int) else sparsity)
    src = node("u", src_shape)
    dst = node("v", spec.output_shape(src.shape))
    kernel = SharedKernel(rng.standard_normal(spec.kernel))
    return ConvEdge(spec, src, dst, kernel, mode=mode), src, dst


class TestConvEdge:
    @pytest.mark.parametrize("mode", list(registry))
    def test_forward_is_valid_correlation(self, mode, rng):
        edge, src, dst = conv_edge(mode=mode)
        x = rng.standard_normal((6, 6, 6))
        out = edge.forward(x)
        np.testing.assert_allclose(out, correlate_valid(x, edge.kernel.array),
                                   atol=1e-10)

    @pytest.mark.parametrize("mode", list(registry))
    def test_update_closure_applies_sgd(self, mode, rng):
        edge, src, dst = conv_edge(mode=mode)
        src.fwd_image = rng.standard_normal((6, 6, 6))
        dst.bwd_image = rng.standard_normal((5, 5, 5))
        edge.forward(src.fwd_image)           # populate spectra caches
        edge.backward(dst.bwd_image)
        before = edge.kernel.array.copy()
        update = edge.capture_update(SGD(learning_rate=0.1))
        update()
        from repro.tensor import conv_kernel_gradient
        expected = before - 0.1 * conv_kernel_gradient(src.fwd_image,
                                                       dst.bwd_image)
        np.testing.assert_allclose(edge.kernel.array, expected, atol=1e-9)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            conv_edge(mode="winograd")

    def test_shared_kernel_updates_under_lock(self, rng):
        """Two edges sharing a kernel both apply their updates."""
        e1, s1, d1 = conv_edge()
        e2, s2, d2 = conv_edge(seed=1)
        e2.kernel = e1.kernel
        for e, s, d in ((e1, s1, d1), (e2, s2, d2)):
            s.fwd_image = rng.standard_normal((6, 6, 6))
            d.bwd_image = rng.standard_normal((5, 5, 5))
        before = e1.kernel.array.copy()
        u1 = e1.capture_update(SGD(learning_rate=0.1))
        u2 = e2.capture_update(SGD(learning_rate=0.1))
        u1()
        u2()
        from repro.tensor import conv_kernel_gradient
        expected = (before
                    - 0.1 * conv_kernel_gradient(s1.fwd_image, d1.bwd_image)
                    - 0.1 * conv_kernel_gradient(s2.fwd_image, d2.bwd_image))
        np.testing.assert_allclose(e1.kernel.array, expected, atol=1e-9)


class TestTransferEdge:
    def make(self, transfer="tanh", bias=0.3):
        spec = EdgeSpec(name="t", src="u", dst="v", kind="transfer",
                        transfer=transfer)
        src = node("u", (4, 4, 4))
        dst = node("v", (4, 4, 4))
        return TransferEdge(spec, src, dst, bias=bias), src, dst

    def test_forward_applies_bias_then_fn(self, rng):
        edge, _, _ = self.make()
        x = rng.standard_normal((4, 4, 4))
        np.testing.assert_allclose(edge.forward(x), np.tanh(x + 0.3),
                                   atol=1e-12)

    def test_backward_uses_stored_output(self, rng):
        edge, src, dst = self.make()
        x = rng.standard_normal((4, 4, 4))
        dst.fwd_image = edge.forward(x)
        g = rng.standard_normal((4, 4, 4))
        out = edge.backward(g)
        np.testing.assert_allclose(out, g * (1 - dst.fwd_image ** 2),
                                   atol=1e-12)

    def test_bias_gradient_is_sum_of_backward_image(self, rng):
        edge, src, dst = self.make()
        x = rng.standard_normal((4, 4, 4))
        dst.fwd_image = edge.forward(x)
        g = rng.standard_normal((4, 4, 4))
        out = edge.backward(g)
        update = edge.capture_update(SGD(learning_rate=1.0))
        before = edge.bias
        update()
        assert np.isclose(before - edge.bias, out.sum())


class TestPoolFilterEdges:
    def test_pool_roundtrip(self, rng):
        spec = EdgeSpec(name="p", src="u", dst="v", kind="pool", window=2)
        src, dst = node("u", (6, 6, 6)), node("v", (3, 3, 3))
        edge = make_runtime_edge(spec, src, dst)
        assert isinstance(edge, MaxWindowEdge)
        x = rng.standard_normal((6, 6, 6))
        out = edge.forward(x)
        assert out.shape == (3, 3, 3)
        back = edge.backward(rng.standard_normal((3, 3, 3)))
        assert back.shape == (6, 6, 6)

    def test_pool_backward_before_forward_rejected(self, rng):
        spec = EdgeSpec(name="p", src="u", dst="v", kind="pool", window=2)
        edge = make_runtime_edge(spec, node("u", (4, 4, 4)),
                                 node("v", (2, 2, 2)))
        with pytest.raises(RuntimeError):
            edge.backward(rng.standard_normal((2, 2, 2)))

    def test_filter_sparse(self, rng):
        spec = EdgeSpec(name="f", src="u", dst="v", kind="filter",
                        window=2, sparsity=(2, 2, 2))
        src, dst = node("u", (8, 8, 8)), node("v", (6, 6, 6))
        edge = make_runtime_edge(spec, src, dst)
        assert isinstance(edge, MaxWindowEdge)
        x = rng.standard_normal((8, 8, 8))
        out = edge.forward(x)
        assert out.shape == (6, 6, 6)
        back = edge.backward(rng.standard_normal((6, 6, 6)))
        assert back.shape == (8, 8, 8)


@pytest.fixture
def winner_calls(monkeypatch):
    """Calls of the winners-deriving kernel made by edges, as a list."""
    calls = []
    kernel = edges_module.window_max

    def counted(image, *geometry):
        calls.append(geometry)
        return kernel(image, *geometry)

    monkeypatch.setattr(edges_module, "window_max", counted)
    return calls


def ctmct(**kwargs):
    graph = build_layered_network("CTMCT", width=[2, 1], kernel=2,
                                  window=2, transfer="tanh")
    return Network(graph, input_shape=(9, 9, 9), conv_mode="direct",
                   seed=3, **kwargs)


class TestWinnersOnDemand:
    def filter_edge(self):
        spec = EdgeSpec(name="f", src="u", dst="v", kind="filter",
                        window=2, sparsity=(1, 1, 1))
        return make_runtime_edge(spec, node("u", (5, 5, 5)),
                                 node("v", (4, 4, 4)))

    def test_forward_only_network_computes_no_winners(self, rng,
                                                      winner_calls):
        with ctmct() as net:
            assert any(isinstance(e, MaxWindowEdge)
                       for e in net.edges.values())
            for _ in range(2):
                net.forward(rng.standard_normal((9, 9, 9)))
        assert winner_calls == []

    def test_training_round_derives_them_once_per_edge(self, rng,
                                                       winner_calls):
        with ctmct() as net:
            filters = [e for e in net.edges.values()
                       if isinstance(e, MaxWindowEdge)]
            target = rng.standard_normal(net.output_nodes[0].shape)
            for round_number in (1, 2):
                net.train_step(rng.standard_normal((9, 9, 9)), target)
                net.synchronize()
                assert len(winner_calls) == round_number * len(filters)

    def test_two_backwards_share_one_derivation(self, rng, winner_calls):
        edge = self.filter_edge()
        edge.forward(rng.standard_normal((5, 5, 5)))
        grad = rng.standard_normal((4, 4, 4))
        first = edge.backward(grad)
        np.testing.assert_array_equal(edge.backward(grad), first)
        assert len(winner_calls) == 1

    def test_next_forward_invalidates_the_winners(self, rng, winner_calls):
        edge = self.filter_edge()
        x = rng.standard_normal((5, 5, 5))
        grad = rng.standard_normal((4, 4, 4))
        edge.forward(x)
        stale = edge.backward(grad)
        edge.forward(-x)  # every window's winner moves
        fresh = edge.backward(grad)
        assert len(winner_calls) == 2
        assert not np.array_equal(fresh, stale)

    def test_backward_routes_to_the_forward_maximum(self, rng):
        edge = self.filter_edge()
        x = rng.standard_normal((5, 5, 5))
        out = edge.forward(x)
        back = edge.backward(np.ones((4, 4, 4)))
        assert back.sum() == out.size
        assert set(x[back > 0]) == set(out.ravel())

    def test_state_digest_independent_of_worker_count(self, rng):
        x = rng.standard_normal((9, 9, 9))

        def digest(num_workers):
            with ctmct(num_workers=num_workers,
                       optimizer=SGD(learning_rate=0.01,
                                     momentum=0.9)) as net:
                target = np.zeros(net.output_nodes[0].shape)
                for _ in range(3):
                    net.train_step(x, target)
                return state_digest(net)

        assert digest(1) == digest(2)


class TestDropoutEdge:
    def make(self, rate=0.5, seed=0):
        spec = EdgeSpec(name="d", src="u", dst="v", kind="dropout",
                        rate=rate)
        return DropoutEdge(spec, node("u", (8, 8, 8)), node("v", (8, 8, 8)),
                           np.random.default_rng(seed))

    def test_training_masks_and_scales(self, rng):
        edge = self.make(rate=0.5)
        x = np.ones((8, 8, 8))
        out = edge.forward(x)
        kept = out != 0
        assert 0.2 < kept.mean() < 0.8
        np.testing.assert_allclose(out[kept], 2.0)  # 1 / (1 - rate)

    def test_backward_uses_same_mask(self, rng):
        edge = self.make(rate=0.5)
        x = rng.standard_normal((8, 8, 8))
        out = edge.forward(x)
        g = np.ones((8, 8, 8))
        back = edge.backward(g)
        np.testing.assert_array_equal(back == 0, out == 0)

    def test_inference_is_identity(self, rng):
        edge = self.make(rate=0.5)
        edge.training = False
        x = rng.standard_normal((8, 8, 8))
        np.testing.assert_array_equal(edge.forward(x), x)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            self.make(rate=1.0)


class TestFactory:
    def test_conv_gets_fresh_kernel(self):
        spec = EdgeSpec(name="e", src="u", dst="v", kind="conv", kernel=2)
        src, dst = node("u", (5, 5, 5)), node("v", (4, 4, 4))
        dst.spec.in_edges.append(spec)
        edge = make_runtime_edge(spec, src, dst,
                                 rng=np.random.default_rng(0))
        assert edge.kernel.array.shape == (2, 2, 2)

    def test_all_kinds_constructible(self):
        kinds = {
            "conv": dict(kernel=2),
            "transfer": dict(transfer="relu"),
            "pool": dict(window=2),
            "filter": dict(window=2),
            "dropout": dict(rate=0.5),
        }
        for kind, params in kinds.items():
            spec = EdgeSpec(name=f"e-{kind}", src="u", dst="v", kind=kind,
                            **params)
            src = node("u", (4, 4, 4))
            dst = node("v", spec.output_shape(src.shape))
            edge = make_runtime_edge(spec, src, dst,
                                     rng=np.random.default_rng(0))
            assert edge.name == f"e-{kind}"
