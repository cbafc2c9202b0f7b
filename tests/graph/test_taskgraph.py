"""Task dependency graph tests (Section V, Fig 3)."""

import pytest

from repro.graph import (
    LOWEST_TASK_PRIORITY,
    build_layered_network,
    build_task_graph,
)
from repro.pram import (conv_layer_tinf, direct_conv_task_cost,
                        nonconv_layer_tinf)


def small_graph(width=2, mode_input=16):
    g = build_layered_network("CTMCT", width=width, kernel=3, window=2)
    g.propagate_shapes(mode_input)
    return g


class TestStructureDirect:
    def test_task_counts(self):
        g = small_graph(width=2)
        tg = build_task_graph(g, conv_mode="direct")
        kinds = tg.count_kinds()
        n_edges = len(g.edges)
        assert kinds["forward"] == n_edges
        assert kinds["backward"] == n_edges
        # updates: conv + transfer edges only
        trainable = sum(1 for e in g.edges.values()
                        if e.kind in ("conv", "transfer"))
        assert kinds["update"] == trainable
        assert kinds["provider"] == 1
        assert kinds["lossgrad"] == len(g.output_nodes)

    def test_acyclic(self):
        tg = build_task_graph(small_graph(), conv_mode="direct")
        tg.validate()  # raises on cycles

    def test_forward_depends_on_own_update(self):
        """The Fig 3 round ordering: fwd:e waits for upd:e."""
        g = small_graph(width=1)
        tg = build_task_graph(g, conv_mode="direct")
        conv = next(e for e in g.edges.values() if e.kind == "conv")
        upd = tg.ids[f"upd:{conv.name}"]
        fwd = tg.ids[f"fwd:{conv.name}"]
        assert fwd in tg.successors[upd]

    def test_update_depends_on_backward(self):
        g = small_graph(width=1)
        tg = build_task_graph(g, conv_mode="direct")
        conv = next(e for e in g.edges.values() if e.kind == "conv")
        bwd = tg.ids[f"bwd:{conv.name}"]
        upd = tg.ids[f"upd:{conv.name}"]
        assert upd in tg.successors[bwd]

    def test_provider_feeds_first_layer_forward(self):
        g = small_graph(width=1)
        tg = build_task_graph(g, conv_mode="direct")
        provider = tg.ids["provider"]
        first_conv = next(e for e in g.edges.values()
                          if e.kind == "conv" and e.src == "L0_0")
        assert tg.ids[f"fwd:{first_conv.name}"] in tg.successors[provider]

    def test_lossgrad_seeds_backward(self):
        g = small_graph(width=1)
        tg = build_task_graph(g, conv_mode="direct")
        out = g.output_nodes[0]
        lg = tg.ids[f"lossgrad:{out.name}"]
        last_edge = out.in_edges[0]
        assert tg.ids[f"bwd:{last_edge.name}"] in tg.successors[lg]

    def test_update_priority_lowest(self):
        tg = build_task_graph(small_graph(), conv_mode="direct")
        for tid, kind in enumerate(tg.kinds):
            if kind == "update":
                assert tg.priorities[tid] == LOWEST_TASK_PRIORITY

    def test_conv_task_cost_matches_model(self):
        g = small_graph(width=1)
        tg = build_task_graph(g, conv_mode="direct")
        conv = next(e for e in g.edges.values() if e.kind == "conv"
                    and e.src == "L0_0")
        expected = direct_conv_task_cost((16, 16, 16), 3)
        assert tg.costs[tg.ids[f"fwd:{conv.name}"]] == expected

    def test_include_updates_false(self):
        tg = build_task_graph(small_graph(), conv_mode="direct",
                              include_updates=False)
        assert "update" not in tg.count_kinds()

    def test_unpropagated_graph_rejected(self):
        g = build_layered_network("CT", width=1, kernel=2)
        with pytest.raises(ValueError):
            build_task_graph(g)


class TestStructureFft:
    def test_fft_tasks_present(self):
        g = small_graph(width=2)
        tg = build_task_graph(g, conv_mode="fft")
        kinds = tg.count_kinds()
        assert kinds.get("fft", 0) > 0
        tg.validate()

    def test_fft_task_inventory(self):
        """Per conv layer: image FFT per source node, kernel FFT per
        edge, inverse FFT per destination node (forward); gradient FFT
        per head node, inverse per tail node (backward)."""
        g = build_layered_network("CTC", width=2, kernel=2)
        g.propagate_shapes(8)
        tg = build_task_graph(g, conv_mode="fft")
        fft_names = [n for n, k in zip(tg.names, tg.kinds) if k == "fft"]
        img = [n for n in fft_names if n.startswith("fft_img:")]
        ker = [n for n in fft_names if n.startswith("fft_kernel:")]
        grad = [n for n in fft_names if n.startswith("fft_grad:")]
        ifft_f = [n for n in fft_names if n.startswith("ifft_fwd:")]
        ifft_b = [n for n in fft_names if n.startswith("ifft_bwd:")]
        # conv edges: 1->2 then 2->2: sources 1 + 2, edges 2 + 4
        assert len(img) == 3
        assert len(ker) == 6
        assert len(ifft_f) == 4  # destination nodes of conv layers: 2+2
        # gradient FFTs at conv heads; inverse at conv tails (non-input
        # tails only contribute if they need spatial gradients — the
        # input node also gets one)
        assert len(grad) == 4
        assert len(ifft_b) == 3

    def test_kernel_fft_follows_update(self):
        g = build_layered_network("CT", width=1, kernel=2)
        g.propagate_shapes(6)
        tg = build_task_graph(g, conv_mode="fft")
        conv = next(e for e in g.edges.values() if e.kind == "conv")
        upd = tg.ids[f"upd:{conv.name}"]
        fk = tg.ids[f"fft_kernel:{conv.name}"]
        assert fk in tg.successors[upd]
        assert tg.priorities[fk] == LOWEST_TASK_PRIORITY

    def test_per_edge_mode_dict(self):
        g = build_layered_network("CTC", width=1, kernel=2)
        g.propagate_shapes(8)
        conv_names = [e.name for e in g.edges.values() if e.kind == "conv"]
        modes = {conv_names[0]: "fft", conv_names[1]: "direct"}
        tg = build_task_graph(g, conv_mode=modes)
        assert f"prod_fwd:{conv_names[0]}" in tg.ids
        assert f"fwd:{conv_names[1]}" in tg.ids

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            build_task_graph(small_graph(), conv_mode="winograd")


class TestCostAggregates:
    def test_total_cost_positive_and_finite(self):
        tg = build_task_graph(small_graph(), conv_mode="direct")
        assert 0 < tg.total_cost < float("inf")

    def test_critical_path_bounded_by_total(self):
        tg = build_task_graph(small_graph(width=3), conv_mode="direct")
        assert 0 < tg.critical_path_cost() <= tg.total_cost

    def test_wider_networks_more_parallel(self):
        """S_inf = T1 / Tinf grows with width (the Fig 4 insight)."""
        def s_inf(width):
            g = build_layered_network("CTCT", width=width, kernel=3)
            g.propagate_shapes(12)
            tg = build_task_graph(g, conv_mode="direct")
            return tg.total_cost / tg.critical_path_cost()

        assert s_inf(8) > s_inf(2) > 1.0

    def test_critical_path_close_to_table3_model(self):
        """The unrolled graph's critical path tracks the summed layer
        T_inf of Tables III-IV (same asymptotics; the task graph
        serialises convergent sums inside tasks instead of collapsing
        them as a binary tree, hence the generous band)."""
        f, n, k = 8, 16, 5
        g = build_layered_network("CTCT", width=f, kernel=k)
        g.propagate_shapes(n + 2 * (k - 1))
        structural = build_task_graph(
            g, conv_mode="direct").critical_path_cost()
        model = 0.0
        f_in = 1
        for size in (n + 2 * (k - 1), n + k - 1):
            conv = conv_layer_tinf(f_in, f, size, k, mode="direct")
            xfer = nonconv_layer_tinf("transfer", size - k + 1)
            model += (conv.forward + conv.backward
                      + xfer.forward + xfer.backward)
            f_in = f
        assert 0.3 < structural / model < 3.0
