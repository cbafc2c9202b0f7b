"""Network forward-pass tests: shapes, determinism, FFT/direct parity,
spectral node sums, engines and schedulers."""

import numpy as np
import pytest

from repro.core import Network
from repro.graph import ComputationGraph, build_layered_network


@pytest.fixture
def x(rng):
    return rng.standard_normal((12, 12, 12))


def small_net(**kwargs):
    graph = build_layered_network("CTC", width=[3, 2], kernel=2,
                                  transfer="tanh")
    defaults = dict(input_shape=(12, 12, 12), conv_mode="direct", seed=11)
    defaults.update(kwargs)
    return Network(graph, **defaults)


class TestForwardBasics:
    def test_output_shapes(self, x):
        net = small_net()
        outs = net.forward(x)
        assert len(outs) == 2
        for v in outs.values():
            assert v.shape == (10, 10, 10)

    def test_deterministic(self, x):
        net = small_net()
        a = net.forward(x)
        b = net.forward(x)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_same_seed_same_network(self, x):
        a = small_net().forward(x)
        b = small_net().forward(x)
        for k in a:
            np.testing.assert_array_equal(a[k], b[k])

    def test_different_seed_different_weights(self, x):
        a = small_net(seed=1).forward(x)
        b = small_net(seed=2).forward(x)
        assert any(not np.allclose(a[k], b[k]) for k in a)

    def test_wrong_input_shape_rejected(self, rng):
        net = small_net()
        with pytest.raises(ValueError):
            net.forward(rng.standard_normal((5, 5, 5)))

    def test_input_dict_for_single_input(self, x):
        net = small_net()
        name = net.input_nodes[0].name
        outs = net.forward({name: x})
        assert len(outs) == 2

    def test_missing_input_rejected(self, x):
        net = small_net()
        with pytest.raises(ValueError):
            net.forward({"nonexistent": x})

    def test_input_not_mutated(self, x):
        net = small_net()
        copy = x.copy()
        net.forward(x)
        np.testing.assert_array_equal(x, copy)

    def test_2d_network(self, rng):
        graph = build_layered_network("CTC", width=2, kernel=(1, 3, 3))
        net = Network(graph, input_shape=(1, 10, 10), seed=0)
        outs = net.forward(rng.standard_normal((1, 10, 10)))
        for v in outs.values():
            assert v.shape == (1, 6, 6)


class TestFftDirectParity:
    @pytest.mark.parametrize("spec,kernel", [("CTC", 2), ("CTMCT", 3)])
    def test_forward_parity(self, rng, spec, kernel):
        graph_d = build_layered_network(spec, width=2, kernel=kernel,
                                        window=2)
        graph_f = build_layered_network(spec, width=2, kernel=kernel,
                                        window=2)
        x = rng.standard_normal((14, 14, 14))
        net_d = Network(graph_d, input_shape=(14, 14, 14),
                        conv_mode="direct", seed=9)
        net_f = Network(graph_f, input_shape=(14, 14, 14),
                        conv_mode="fft", seed=9)
        a = net_d.forward(x)
        b = net_f.forward(x)
        for k in a:
            np.testing.assert_allclose(a[k], b[k], atol=1e-9)

    def test_memoization_does_not_change_results(self, rng):
        graph1 = build_layered_network("CTC", width=2, kernel=2)
        graph2 = build_layered_network("CTC", width=2, kernel=2)
        x = rng.standard_normal((10, 10, 10))
        a = Network(graph1, input_shape=(10, 10, 10), conv_mode="fft",
                    memoize=True, seed=4).forward(x)
        b = Network(graph2, input_shape=(10, 10, 10), conv_mode="fft",
                    memoize=False, seed=4).forward(x)
        for k in a:
            np.testing.assert_allclose(a[k], b[k], atol=1e-10)

    def test_memoization_reuses_spectra(self, x):
        net = small_net(conv_mode="fft", memoize=True)
        net.forward(x)
        assert net.cache.stats.reused > 0

    def test_spectral_node_domain_detected(self, x):
        net = small_net(conv_mode="fft")
        # conv-layer destinations accumulate spectra
        l1 = net.nodes["L1_0"]
        assert l1.forward_plan is l1.in_edges[0].plan
        # input node's backward sum also spectral (all out-edges fft)
        assert net.nodes["L0_0"].backward_plan is not None
        # transfer destinations are spatial
        assert net.nodes["L2_0"].forward_plan is None

    def test_mixed_mode_network(self, rng):
        graph = build_layered_network("CTC", width=2, kernel=2)
        conv_names = [e.name for e in graph.edges.values()
                      if e.kind == "conv"]
        modes = {n: ("fft" if i % 2 else "direct")
                 for i, n in enumerate(conv_names)}
        x = rng.standard_normal((10, 10, 10))
        mixed = Network(graph, input_shape=(10, 10, 10), conv_mode=modes,
                        seed=3).forward(x)
        graph2 = build_layered_network("CTC", width=2, kernel=2)
        pure = Network(graph2, input_shape=(10, 10, 10),
                       conv_mode="direct", seed=3).forward(x)
        for k in mixed:
            np.testing.assert_allclose(mixed[k], pure[k], atol=1e-9)


class TestEngines:
    @pytest.mark.parametrize("workers", [2, 4])
    def test_threaded_matches_serial(self, x, workers):
        serial = small_net(num_workers=1).forward(x)
        net = small_net(num_workers=workers)
        threaded = net.forward(x)
        net.close()
        for k in serial:
            np.testing.assert_allclose(serial[k], threaded[k], atol=1e-12)

    @pytest.mark.parametrize("sched", ["fifo", "lifo", "work-stealing"])
    def test_alternative_schedulers_same_result(self, x, sched):
        ref = small_net().forward(x)
        net = small_net(num_workers=2, scheduler=sched)
        out = net.forward(x)
        net.close()
        for k in ref:
            np.testing.assert_allclose(ref[k], out[k], atol=1e-12)

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            small_net(num_workers=0)

    def test_invalid_conv_mode(self):
        with pytest.raises(ValueError):
            small_net(conv_mode="winograd")


class TestConvergentSums:
    def test_multi_input_convergence(self, rng):
        """Two inputs converging by convolution onto one node sum."""
        g = ComputationGraph()
        g.add_node("in1")
        g.add_node("in2")
        g.add_node("sum")
        g.add_edge("c1", "in1", "sum", "conv", kernel=2)
        g.add_edge("c2", "in2", "sum", "conv", kernel=2)
        net = Network(g, input_shape=(6, 6, 6), conv_mode="direct", seed=2)
        x1 = rng.standard_normal((6, 6, 6))
        x2 = rng.standard_normal((6, 6, 6))
        out = net.forward({"in1": x1, "in2": x2})["sum"]

        from repro.tensor import correlate_valid
        k1 = net.edges["c1"].kernel.array
        k2 = net.edges["c2"].kernel.array
        expected = correlate_valid(x1, k1) + correlate_valid(x2, k2)
        np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_spectral_sum_matches_spatial(self, rng):
        g1 = ComputationGraph()
        g2 = ComputationGraph()
        for g in (g1, g2):
            g.add_node("in1")
            g.add_node("in2")
            g.add_node("sum")
            g.add_edge("c1", "in1", "sum", "conv", kernel=2)
            g.add_edge("c2", "in2", "sum", "conv", kernel=2)
        inputs = {"in1": rng.standard_normal((6, 6, 6)),
                  "in2": rng.standard_normal((6, 6, 6))}
        a = Network(g1, input_shape=(6, 6, 6), conv_mode="direct",
                    seed=2).forward(inputs)
        b = Network(g2, input_shape=(6, 6, 6), conv_mode="fft",
                    seed=2).forward(inputs)
        np.testing.assert_allclose(a["sum"], b["sum"], atol=1e-10)
