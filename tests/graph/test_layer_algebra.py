"""The layer algebra over random layered specs.

``LayeredSpec.layers()`` is the one walk of a layer string, and
``utils.shapes`` holds one forward rule per layer kind
(``layer_output_shape``, behind ``Layer.output_shape`` and
``EdgeSpec.output_shape``) and one reverse rule
(``input_shape_for_output``, ``field_of_view`` at one voxel).  These
properties tie them to the graph the builder makes, to each other and
to a real network's forward pass.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Network
from repro.core.tiling import field_of_view_of
from repro.graph.builders import LayeredSpec, build_layered_network, dense_twin
from repro.utils.shapes import input_shape_for_output

shape3 = st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 3))
window3 = st.tuples(st.integers(1, 2), st.integers(1, 2), st.integers(1, 2))


@st.composite
def layered_specs(draw):
    """(spec, builder kwargs): C/T/M/P/D strings with at least one C,
    one (anisotropic) kernel per C and window per M/P layer."""
    spec = draw(st.text(alphabet="CTMPD", min_size=1, max_size=5).filter(
        lambda s: "C" in s))
    n_window = max(sum(spec.count(c) for c in "MP"), 1)
    return spec, dict(
        width=draw(st.integers(1, 2)),
        kernel=draw(st.lists(shape3, min_size=spec.count("C"),
                             max_size=spec.count("C"))),
        window=draw(st.lists(window3, min_size=n_window,
                             max_size=n_window)),
        skip_kernels=draw(st.booleans()))


def rules(layers):
    return [(layer.kind, layer.window, layer.sparsity) for layer in layers]


def walk(layers, shape):
    """Image shape after every layer, by the shared forward rule."""
    shapes = []
    for layer in layers:
        shape = layer.output_shape(shape)
        shapes.append(shape)
    return shapes


class TestLayerAlgebra:
    @given(spec=layered_specs(), output=shape3)
    @settings(max_examples=40)
    def test_walk_matches_propagated_node_shapes(self, spec, output):
        spec, kwargs = spec
        layers = list(LayeredSpec(spec, **kwargs).layers())
        input_shape = input_shape_for_output(output, rules(layers))
        graph = build_layered_network(spec, **kwargs)
        graph.propagate_shapes(input_shape)
        shapes = walk(layers, input_shape)
        for layer, shape in zip(layers, shapes):
            assert {node.shape for node in graph.nodes.values()
                    if node.layer == layer.index} == {shape}
        assert shapes[-1] == output

    @given(spec=layered_specs(),
           input_shape=st.tuples(*[st.integers(1, 40)] * 3))
    @settings(max_examples=60)
    def test_reverse_rule_maps_the_output_back(self, spec, input_shape):
        spec, kwargs = spec
        layers = list(LayeredSpec(spec, **kwargs).layers())
        try:
            output = walk(layers, input_shape)[-1]
        except ValueError:
            return  # too small, or not divisible by a pooling window
        assert input_shape_for_output(output, rules(layers)) == input_shape

    @given(spec=layered_specs(), extra=shape3)
    @settings(max_examples=20)
    def test_twin_fov_is_the_built_networks(self, spec, extra):
        spec, kwargs = spec
        twin = dense_twin(spec, output_nodes=1, **kwargs)  # one output
        input_shape = tuple(f + e - 1 for f, e in zip(twin.fov, extra))
        net = Network(twin.build_graph(), input_shape=input_shape, seed=0)
        assert field_of_view_of(net) == twin.fov
        (out,) = net.forward(np.zeros(input_shape)).values()
        assert out.shape == walk(twin.layers, input_shape)[-1]
