"""Layered-network builder tests."""

import pytest

from repro.graph import build_layered_network, pool_to_filter_spec
from repro.graph.builders import LayeredSpec


class TestSpecParsing:
    def test_invalid_characters_rejected(self):
        with pytest.raises(ValueError):
            build_layered_network("CTX", width=2)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_layered_network("", width=2)

    def test_no_conv_rejected(self):
        with pytest.raises(ValueError):
            build_layered_network("TT", width=2)

    def test_lowercase_accepted(self):
        g = build_layered_network("ctc", width=2, kernel=2)
        assert len(g.edges) > 0

    def test_width_list_length_checked(self):
        with pytest.raises(ValueError):
            build_layered_network("CTC", width=[2], kernel=2)

    def test_layers_walk_sizes_sparsity_and_edge_names(self):
        spec = LayeredSpec("CTMC", width=[3, 5], kernel=2, window=2,
                           skip_kernels=True)
        layers = list(spec.layers())
        assert [(l.kind, l.f_in, l.f_out) for l in layers] == [
            ("conv", 1, 3), ("transfer", 3, 3), ("filter", 3, 3),
            ("conv", 3, 5)]
        assert [l.sparsity for l in layers if l.kind == "conv"] == [
            (1, 1, 1), (2, 2, 2)]
        assert layers[0].edges == ("conv_L1_0_0", "conv_L1_0_1",
                                   "conv_L1_0_2")
        assert layers[2].edges == ("filt_L3_0", "filt_L3_1", "filt_L3_2")
        # The graph builder names its edges off the same walk.
        graph = build_layered_network("CTMC", width=[3, 5], kernel=2,
                                      window=2, skip_kernels=True)
        assert [e for l in layers for e in l.edges] == list(graph.edges)
        with pytest.raises(ValueError, match="one entry per C layer"):
            list(spec.layers(sparsity_schedule=[1]))


class TestStructure:
    def test_paper_3d_net_counts(self):
        """CTMCTMCTCT at width f: conv edges f + 3f^2, one-to-one
        transfer/filter edges."""
        f = 4
        g = build_layered_network("CTMCTMCTCT", width=f, kernel=3, window=2)
        conv = [e for e in g.edges.values() if e.kind == "conv"]
        xfer = [e for e in g.edges.values() if e.kind == "transfer"]
        filt = [e for e in g.edges.values() if e.kind == "filter"]
        assert len(conv) == f + 3 * f * f
        assert len(xfer) == 4 * f
        assert len(filt) == 2 * f

    def test_fully_connected(self):
        g = build_layered_network("CTC", width=[3, 2], kernel=2)
        # second conv layer: 3 sources x 2 destinations
        second = [e for e in g.edges.values()
                  if e.kind == "conv" and e.src.startswith("L2")]
        assert len(second) == 6

    def test_output_nodes_override(self):
        g = build_layered_network("CTCT", width=5, kernel=2, output_nodes=1)
        assert len(g.output_nodes) == 1

    def test_multiple_input_nodes(self):
        g = build_layered_network("CT", width=3, kernel=2, input_nodes=2)
        assert len(g.input_nodes) == 2
        conv = [e for e in g.edges.values() if e.kind == "conv"]
        assert len(conv) == 6  # fully connected from both inputs

    def test_dropout_layer(self):
        g = build_layered_network("CTD", width=2, kernel=2,
                                  dropout_rate=0.3)
        drops = [e for e in g.edges.values() if e.kind == "dropout"]
        assert len(drops) == 2 and drops[0].rate == 0.3

    def test_pool_layers(self):
        g = build_layered_network("CTP", width=2, kernel=2, window=2)
        pools = [e for e in g.edges.values() if e.kind == "pool"]
        assert len(pools) == 2


class TestSkipKernels:
    def test_sparsity_grows_with_filters(self):
        g = build_layered_network("CMCMC", width=1, kernel=3, window=2,
                                  skip_kernels=True)
        convs = sorted((e.name, e.sparsity) for e in g.edges.values()
                       if e.kind == "conv")
        sparsities = [s for _, s in convs]
        assert sparsities == [(1, 1, 1), (2, 2, 2), (4, 4, 4)]

    def test_filter_sparsity_grows_too(self):
        g = build_layered_network("CMCM", width=1, kernel=3, window=2,
                                  skip_kernels=True)
        filts = sorted((e.name, e.sparsity) for e in g.edges.values()
                       if e.kind == "filter")
        assert [s for _, s in filts] == [(1, 1, 1), (2, 2, 2)]

    def test_disabled_by_default(self):
        g = build_layered_network("CMC", width=1, kernel=3, window=2)
        assert all(e.sparsity == (1, 1, 1) for e in g.edges.values())

    def test_explicit_schedule_overrides(self):
        g = build_layered_network("CMC", width=1, kernel=3, window=2,
                                  sparsity_schedule=[1, 3])
        convs = sorted((e.name, e.sparsity) for e in g.edges.values()
                       if e.kind == "conv")
        assert [s for _, s in convs] == [(1, 1, 1), (3, 3, 3)]

    def test_schedule_length_checked(self):
        with pytest.raises(ValueError):
            build_layered_network("CMC", width=1, kernel=3,
                                  sparsity_schedule=[1])


class TestTransferOptions:
    def test_uniform_transfer(self):
        g = build_layered_network("CTCT", width=2, kernel=2,
                                  transfer="tanh")
        assert all(e.transfer == "tanh" for e in g.edges.values()
                   if e.kind == "transfer")

    def test_final_transfer_override(self):
        g = build_layered_network("CTCT", width=2, kernel=2,
                                  transfer="relu", final_transfer="linear")
        last = [e.transfer for e in g.edges.values()
                if e.kind == "transfer" and e.src.startswith("L3")]
        first = [e.transfer for e in g.edges.values()
                 if e.kind == "transfer" and e.src.startswith("L1")]
        assert set(last) == {"linear"} and set(first) == {"relu"}


class TestPerLayerParameters:
    def test_kernel_list(self):
        g = build_layered_network("CTC", width=2, kernel=[2, 3])
        kernels = {e.kernel for e in g.edges.values() if e.kind == "conv"}
        assert kernels == {(2, 2, 2), (3, 3, 3)}

    def test_kernel_tuple_applies_to_all(self):
        g = build_layered_network("CTC", width=2, kernel=(1, 3, 3))
        kernels = {e.kernel for e in g.edges.values() if e.kind == "conv"}
        assert kernels == {(1, 3, 3)}

    def test_anisotropic_window(self):
        g = build_layered_network("CM", width=1, kernel=2, window=(1, 2, 2))
        filt = [e for e in g.edges.values() if e.kind == "filter"][0]
        assert filt.window == (1, 2, 2)


class TestPoolToFilterSpec:
    def test_replaces_p_with_m(self):
        assert pool_to_filter_spec("CTPCTPCT") == "CTMCTMCT"

    def test_lowercase(self):
        assert pool_to_filter_spec("ctp") == "CTM"

    def test_idempotent_without_p(self):
        assert pool_to_filter_spec("CTM") == "CTM"
