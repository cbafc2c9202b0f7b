"""Property-based structural tests over random layered specs."""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.graph import (
    build_layered_network,
    build_task_graph,
    forward_priorities,
    output_distance_ordering,
)
from repro.simulate import MachineSpec, simulate_schedule

spec_strategy = st.text(alphabet="CTMP", min_size=1, max_size=8).filter(
    lambda s: "C" in s)
width_strategy = st.integers(1, 4)


def try_build(spec, width):
    """Build with safe parameters; returns None if the spec is
    geometrically impossible at the probe input size."""
    try:
        g = build_layered_network(spec, width=width, kernel=2, window=2,
                                  skip_kernels=True)
        g.propagate_shapes(32)
        return g
    except ValueError:
        return None


class TestStructuralProperties:
    @given(spec=spec_strategy, width=width_strategy)
    @settings(max_examples=40)
    def test_edge_count_formula(self, spec, width):
        g = try_build(spec, width)
        assume(g is not None)
        conv = sum(1 for e in g.edges.values() if e.kind == "conv")
        one_to_one = sum(1 for e in g.edges.values() if e.kind != "conv")
        # Walk the spec tracking the running layer width: conv layers
        # contribute prev*width edges, one-to-one layers prev edges.
        expected_conv = 0
        expected_o2o = 0
        prev = 1  # input_nodes
        for c in spec.upper():
            if c == "C":
                expected_conv += prev * width
                prev = width
            else:
                expected_o2o += prev
        assert conv == expected_conv
        assert one_to_one == expected_o2o

    @given(spec=spec_strategy, width=width_strategy)
    @settings(max_examples=40)
    def test_always_acyclic_and_shaped(self, spec, width):
        g = try_build(spec, width)
        assume(g is not None)
        g.validate()
        assert all(n.shape is not None for n in g.nodes.values())

    @given(spec=spec_strategy, width=width_strategy)
    @settings(max_examples=30)
    def test_orderings_are_permutations(self, spec, width):
        g = try_build(spec, width)
        assume(g is not None)
        order = output_distance_ordering(g)
        assert sorted(order.values()) == list(range(len(g.nodes)))

    @given(spec=spec_strategy, width=width_strategy)
    @settings(max_examples=30)
    def test_convergent_edges_share_priority(self, spec, width):
        g = try_build(spec, width)
        assume(g is not None)
        fp = forward_priorities(g)
        for node in g.nodes.values():
            values = {fp[e.name] for e in node.in_edges}
            assert len(values) <= 1


class TestDeterminismProperties:
    """Data-parallel replicas rely on the builder being a pure function
    of its arguments: every process must derive the same graph."""

    @given(spec=spec_strategy, width=width_strategy)
    @settings(max_examples=30)
    def test_build_is_deterministic(self, spec, width):
        a = try_build(spec, width)
        assume(a is not None)
        b = try_build(spec, width)
        assert sorted(a.nodes) == sorted(b.nodes)
        assert sorted(a.edges) == sorted(b.edges)
        for name in a.edges:
            assert a.edges[name].kind == b.edges[name].kind
        for name in a.nodes:
            assert a.nodes[name].shape == b.nodes[name].shape

    @given(spec=spec_strategy, width=width_strategy)
    @settings(max_examples=30)
    def test_node_count_formula(self, spec, width):
        g = try_build(spec, width)
        assume(g is not None)
        expected = 1  # the input node
        prev = 1
        for c in spec.upper():
            prev = width if c == "C" else prev
            expected += prev
        assert len(g.nodes) == expected

    @given(spec=spec_strategy, width=width_strategy)
    @settings(max_examples=30)
    def test_shapes_never_grow_along_edges(self, spec, width):
        """Every layer kind in the alphabet (conv without padding,
        transfer, max-filter, pooling) preserves or shrinks the
        per-axis extent."""
        g = try_build(spec, width)
        assume(g is not None)
        for edge in g.edges.values():
            src = g.nodes[edge.src].shape
            dst = g.nodes[edge.dst].shape
            assert all(d <= s for s, d in zip(src, dst)), (
                edge.name, src, dst)


class TestTaskGraphProperties:
    @given(spec=spec_strategy, width=width_strategy,
           mode=st.sampled_from(["direct", "fft"]))
    @settings(max_examples=25)
    def test_task_graph_valid_and_consistent(self, spec, width, mode):
        g = try_build(spec, width)
        assume(g is not None)
        tg = build_task_graph(g, conv_mode=mode)
        tg.validate()
        kinds = tg.count_kinds()
        assert kinds["forward"] + kinds.get("fft", 0) >= len(g.edges)
        assert kinds["provider"] == 1
        assert tg.total_cost > 0
        assert 0 < tg.critical_path_cost() <= tg.total_cost

    @given(spec=spec_strategy, width=width_strategy,
           threads=st.integers(1, 12))
    @settings(max_examples=25)
    def test_des_makespan_bounds(self, spec, width, threads):
        """For every random network: T1/P <= makespan <= T1 (ideal
        machine, no overhead)."""
        g = try_build(spec, width)
        assume(g is not None)
        tg = build_task_graph(g, conv_mode="direct")
        machine = MachineSpec(name="ideal", cores=threads, threads=threads,
                              ghz=1.0, yield_tier1=0.0, sync_overhead=0.0)
        result = simulate_schedule(tg, machine, threads)
        lower = max(tg.total_cost / threads, tg.critical_path_cost())
        assert lower * 0.999 <= result.makespan <= tg.total_cost * 1.001
