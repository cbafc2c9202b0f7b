"""RuntimeNode unit tests (accumulator lifecycle, domain detection)."""

import numpy as np
import pytest

from repro.core.edges import ConvEdge, SharedKernel, TransferEdge
from repro.core.nodes import RuntimeNode
from repro.graph.computation_graph import EdgeSpec, NodeSpec


def make_node(name="n", shape=(6, 6, 6)):
    spec = NodeSpec(name=name)
    spec.shape = shape
    return RuntimeNode(spec)


def conv_edge(src, dst, mode="direct", name="e"):
    spec = EdgeSpec(name=name, src=src.name, dst=dst.name, kind="conv",
                    kernel=2)
    kernel = SharedKernel(np.zeros((2, 2, 2)))
    return ConvEdge(spec, src, dst, kernel, mode=mode)


def transfer_edge(src, dst, name="t"):
    spec = EdgeSpec(name=name, src=src.name, dst=dst.name, kind="transfer",
                    transfer="relu")
    return TransferEdge(spec, src, dst)


class TestConstruction:
    def test_requires_shape(self):
        spec = NodeSpec(name="x")
        with pytest.raises(ValueError):
            RuntimeNode(spec)

    def test_input_output_flags(self):
        n = make_node()
        assert n.is_input and n.is_output
        src, dst = make_node("a"), make_node("b", (5, 5, 5))
        e = conv_edge(src, dst)
        src.out_edges.append(e)
        dst.in_edges.append(e)
        assert src.is_input and not src.is_output
        assert dst.is_output and not dst.is_input


class TestWire:
    def test_no_sums_for_isolated_node(self):
        n = make_node()
        n.wire()
        assert n.fwd_sum is None and n.bwd_sum is None

    def test_spectral_requires_all_fft(self):
        src1, src2 = make_node("a"), make_node("b")
        dst = make_node("d", (5, 5, 5))
        e1 = conv_edge(src1, dst, mode="fft", name="e1")
        e2 = conv_edge(src2, dst, mode="direct", name="e2")
        dst.in_edges.extend([e1, e2])
        dst.wire()
        assert dst.forward_plan is None  # mixed modes: a spatial sum

    def test_spectral_when_uniform_fft(self):
        src1, src2 = make_node("a"), make_node("b")
        dst = make_node("d", (5, 5, 5))
        dst.in_edges.extend([conv_edge(src1, dst, mode="fft", name="e1"),
                             conv_edge(src2, dst, mode="fft", name="e2")])
        dst.wire()
        assert dst.forward_plan is dst.in_edges[0].plan

    def test_transfer_edges_spatial(self):
        src = make_node("a")
        dst = make_node("d")
        dst.in_edges.append(transfer_edge(src, dst))
        dst.wire()
        assert dst.forward_plan is None


class TestAccumulation:
    def test_add_forward_counts(self, rng):
        src1, src2 = make_node("a"), make_node("b")
        dst = make_node("d", (5, 5, 5))
        e1 = conv_edge(src1, dst, name="e1")
        e2 = conv_edge(src2, dst, name="e2")
        dst.in_edges.extend([e1, e2])
        dst.wire()
        assert not dst.add_forward(e1, rng.standard_normal((5, 5, 5)))
        assert dst.add_forward(e2, rng.standard_normal((5, 5, 5)))
        out = dst.finalize_forward()
        assert out.shape == (5, 5, 5)
        assert dst.fwd_image is out

    def test_deterministic_wire_uses_ordered_sum(self, rng):
        from repro.sync import OrderedSum

        src = make_node("a")
        dst = make_node("d", (5, 5, 5))
        e = conv_edge(src, dst)
        src.out_edges.append(e)
        dst.in_edges.append(e)
        src.wire()
        dst.wire()
        assert isinstance(dst.fwd_sum, OrderedSum)
        assert isinstance(src.bwd_sum, OrderedSum)
        assert dst.add_forward(e, rng.standard_normal((5, 5, 5)))

    def test_reset_round_allows_reuse(self, rng):
        src = make_node("a")
        dst = make_node("d", (5, 5, 5))
        e = conv_edge(src, dst)
        dst.in_edges.append(e)
        dst.wire()
        dst.add_forward(e, rng.standard_normal((5, 5, 5)))
        dst.finalize_forward()
        dst.reset_round()
        assert dst.add_forward(e, rng.standard_normal((5, 5, 5)))
