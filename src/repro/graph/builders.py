"""Layered-network builders (Sections II, VIII).

The paper's benchmark architectures are given as layer-type strings —
e.g. ``CTMCTMCTCT`` for the 3D net (four fully-connected convolutional
layers C with 3x3x3 kernels, each followed by a transfer layer T, and
two 2x2x2 max-filtering layers M) and ``CTPCTPCTCTCTCT`` for the GPU
comparison (P = max-pooling).  This module turns such strings into
:class:`repro.graph.ComputationGraph` instances.

Layer characters:

* ``C`` — fully connected convolutional layer (every node of the
  previous image layer connects to every node of the new layer).
* ``T`` — transfer-function layer (one-to-one edges).
* ``M`` — max-filtering layer (one-to-one).
* ``P`` — max-pooling layer (one-to-one).
* ``D`` — dropout layer (one-to-one; an extension shipped with ZNN).

With ``skip_kernels=True`` (Fig 2) each max-filtering layer multiplies
the *sparsity* of all subsequent convolutions and max-filterings by its
window size, turning the net into the sparse dense-output equivalent of
a sliding-window max-pooling ConvNet.  ZNN is more general — sparsity
"need not increase in lock step with max-filtering" — so an explicit
``sparsity_schedule`` can override the automatic rule.
"""

from __future__ import annotations

from typing import (
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.graph.computation_graph import ComputationGraph
from repro.utils.shapes import (
    Shape3,
    ShapeLike,
    as_shape3,
    field_of_view,
    layer_output_shape,
)

__all__ = ["DenseTwin", "Layer", "LayeredSpec", "build_layered_network",
           "dense_twin", "pool_to_filter_spec"]

WidthLike = Union[int, Sequence[int]]

_EDGE_PREFIX = {"conv": "conv", "transfer": "xfer", "filter": "filt",
                "pool": "pool", "dropout": "drop"}


class Layer(NamedTuple):
    """One layer of a layered spec, as :meth:`LayeredSpec.layers`
    yields it — the graph builder, the field-of-view algebra, the
    serving cost walk, the Figs 5-7 simulator's nets and the Section
    IX cost models all read the network off these."""

    index: int  # 1-based position in the spec string
    kind: str  # conv | transfer | filter | pool | dropout
    f_in: int
    f_out: int
    #: Kernel of a conv layer, window of a filter/pool layer, else None.
    window: Optional[Shape3]
    #: Dilation of this layer's window (accumulated skip-kernel factor).
    sparsity: Shape3

    def edge_name(self, dst: int, src: Optional[int] = None) -> str:
        """Name of the edge into node *dst* of this layer (from node
        *src* of the previous one, for the all-to-all conv layers)."""
        via = f"{src}_" if self.kind == "conv" else ""
        return f"{_EDGE_PREFIX[self.kind]}_L{self.index}_{via}{dst}"

    @property
    def edges(self) -> Tuple[str, ...]:
        """Every edge name of the layer, in graph-build order."""
        if self.kind == "conv":
            return tuple(self.edge_name(j, i) for j in range(self.f_out)
                         for i in range(self.f_in))
        return tuple(self.edge_name(j) for j in range(self.f_out))

    def output_shape(self, input_shape: ShapeLike) -> Shape3:
        """Shape of this layer's images given its input images'."""
        return layer_output_shape(self.kind, self.window, self.sparsity,
                                  input_shape)


class LayeredSpec:
    """Parsed layered-network specification.

    Attributes mirror the builder arguments after normalisation; the
    spec can be inspected (e.g. by the cost model) without building a
    graph.
    """

    def __init__(self, spec: str, width: WidthLike, kernel: ShapeLike | Sequence,
                 window: ShapeLike | Sequence = 2, transfer: str = "relu",
                 input_nodes: int = 1, output_nodes: Optional[int] = None,
                 skip_kernels: bool = False, dropout_rate: float = 0.5,
                 final_transfer: Optional[str] = None) -> None:
        spec = spec.upper()
        if not spec or any(c not in "CTMPD" for c in spec):
            raise ValueError(
                f"spec must be a non-empty string over C/T/M/P/D, got {spec!r}")
        self.spec = spec
        self.transfer = transfer
        self.final_transfer = final_transfer if final_transfer is not None \
            else transfer
        self.input_nodes = int(input_nodes)
        if self.input_nodes < 1:
            raise ValueError("input_nodes must be >= 1")
        self.skip_kernels = bool(skip_kernels)
        self.dropout_rate = float(dropout_rate)

        n_conv = spec.count("C")
        n_window = sum(spec.count(c) for c in "MP")
        if n_conv == 0:
            raise ValueError("spec must contain at least one C layer")

        self.widths: List[int] = self._per_layer(width, n_conv, "width")
        if output_nodes is not None:
            self.widths[-1] = int(output_nodes)
        self.kernels: List[Shape3] = [
            as_shape3(k, name="kernel")
            for k in self._per_layer_shapes(kernel, n_conv, "kernel")]
        self.windows: List[Shape3] = [
            as_shape3(w, name="window")
            for w in self._per_layer_shapes(window, max(n_window, 1), "window")]

    @staticmethod
    def _per_layer(value: WidthLike, n: int, name: str) -> List[int]:
        if isinstance(value, int):
            values = [value] * n
        else:
            values = [int(v) for v in value]
        if len(values) != n:
            raise ValueError(f"{name} list must have {n} entries, got {len(values)}")
        if any(v < 1 for v in values):
            raise ValueError(f"{name} entries must be >= 1, got {values}")
        return values

    @staticmethod
    def _per_layer_shapes(value, n: int, name: str) -> List:
        """A scalar or a *tuple* is one shape applied to every layer; a
        *list* gives one entry (scalar or shape tuple) per layer."""
        if isinstance(value, int):
            return [value] * n
        if isinstance(value, tuple):
            return [value] * n
        seq = list(value)
        if len(seq) != n:
            raise ValueError(f"{name} list must have {n} entries, got {len(seq)}")
        return seq

    def layers(self, sparsity_schedule: Optional[Sequence[ShapeLike]] = None
               ) -> Iterator[Layer]:
        """The one walk of the spec string: widths, windows and the
        skip-kernel sparsity compounding, layer by layer.

        With ``skip_kernels`` each ``M`` layer multiplies the sparsity
        of everything after it by its window; an explicit
        *sparsity_schedule* (one entry per C layer) overrides the
        automatic rule for the convolutions.
        """
        explicit = None
        if sparsity_schedule is not None:
            explicit = [as_shape3(s, name="sparsity")
                        for s in sparsity_schedule]
            if len(explicit) != len(self.widths):
                raise ValueError(
                    "sparsity_schedule must have one entry per C layer")
        width = self.input_nodes
        sparsity: Shape3 = (1, 1, 1)
        ci = wi = 0
        for li, c in enumerate(self.spec, start=1):
            if c == "C":
                yield Layer(li, "conv", width, self.widths[ci],
                            self.kernels[ci],
                            explicit[ci] if explicit is not None
                            else sparsity)
                width = self.widths[ci]
                ci += 1
            elif c in "MP":
                w = self.windows[wi]
                yield Layer(li, "filter" if c == "M" else "pool",
                            width, width, w, sparsity)
                if c == "M" and self.skip_kernels:
                    sparsity = tuple(s * wd for s, wd in zip(sparsity, w))  # type: ignore[assignment]
                wi += 1
            else:
                yield Layer(li, "transfer" if c == "T" else "dropout",
                            width, width, None, sparsity)


def build_layered_network(spec: str, width: WidthLike,
                          kernel: ShapeLike | Sequence = 3,
                          window: ShapeLike | Sequence = 2,
                          transfer: str = "relu",
                          input_nodes: int = 1,
                          output_nodes: Optional[int] = None,
                          skip_kernels: bool = False,
                          sparsity_schedule: Optional[Sequence[ShapeLike]] = None,
                          dropout_rate: float = 0.5,
                          final_transfer: Optional[str] = None) -> ComputationGraph:
    """Build a layered ConvNet computation graph from a type string.

    Parameters
    ----------
    spec:
        Layer-type string over ``C``/``T``/``M``/``P``/``D``.
    width:
        Nodes per C layer (int, or one int per C layer).
    kernel:
        Kernel size per C layer (scalar, shape tuple, or list of either).
    window:
        Window size per M/P layer.
    transfer:
        Transfer-function name for T layers.
    input_nodes:
        Number of input image nodes.
    output_nodes:
        Override the width of the final C layer (e.g. 1 for a boundary
        map).
    skip_kernels:
        Automatically dilate convolutions/filters after each
        max-filtering layer (Fig 2).
    sparsity_schedule:
        Explicit per-C-layer sparsities, overriding ``skip_kernels`` —
        ZNN's independent sparsity control.
    dropout_rate:
        Rate for any ``D`` layers.
    final_transfer:
        Transfer-function name for the *last* T layer (e.g. ``"linear"``
        so the network emits unbounded logits for a logistic loss);
        defaults to ``transfer``.
    """
    parsed = LayeredSpec(spec, width, kernel, window, transfer,
                         input_nodes, output_nodes, skip_kernels,
                         dropout_rate, final_transfer)
    graph = ComputationGraph()
    prev_names = [graph.add_node(f"L0_{i}", layer=0).name
                  for i in range(parsed.input_nodes)]
    last_t = parsed.spec.rfind("T") + 1
    for layer in parsed.layers(sparsity_schedule):
        new_names = [graph.add_node(f"L{layer.index}_{j}",
                                    layer=layer.index).name
                     for j in range(layer.f_out)]
        if layer.kind == "conv":
            for j, dst in enumerate(new_names):
                for i, src in enumerate(prev_names):
                    graph.add_edge(layer.edge_name(j, i), src, dst, "conv",
                                   kernel=layer.window,
                                   sparsity=layer.sparsity)
        else:
            attrs = {
                "transfer": {"transfer": parsed.final_transfer
                             if layer.index == last_t else parsed.transfer},
                "filter": {"window": layer.window,
                           "sparsity": layer.sparsity},
                "pool": {"window": layer.window},
                "dropout": {"rate": parsed.dropout_rate},
            }[layer.kind]
            for j, (src, dst) in enumerate(zip(prev_names, new_names)):
                graph.add_edge(layer.edge_name(j), src, dst, layer.kind,
                               **attrs)
        prev_names = new_names

    graph.validate()
    return graph


def pool_to_filter_spec(spec: str) -> str:
    """Convert a max-pooling layer string to its max-filtering
    dense-output equivalent (Fig 2): every ``P`` becomes ``M``.

    Build the result with ``skip_kernels=True`` to obtain the sparse
    convolutions that make the two networks compute identical values on
    the overlapping output lattice.
    """
    return spec.upper().replace("P", "M")


class DenseTwin(NamedTuple):
    """The dense-equivalent twin of a layered spec, as
    :func:`dense_twin` decides it: layers, field of view and graph all
    come from the same ``(spec, builder_kwargs)`` pair."""

    spec: str  # the layer string with every P turned into M
    builder_kwargs: dict  # skip_kernels on, no sparsity_schedule
    layers: Tuple[Layer, ...]
    #: Per-axis minimum input size, and the halo a tiled inference
    #: extends each block by (``input = output + fov - 1``).
    fov: Shape3

    def build_graph(self) -> ComputationGraph:
        return build_layered_network(self.spec, **self.builder_kwargs)


def dense_twin(spec: str, **builder_kwargs) -> DenseTwin:
    """The one twin rule (Fig 2): every ``P`` becomes ``M`` and
    skip-kernels are on — the twin always dilates by the accumulated
    pooling factor, so a ``skip_kernels`` flag or a
    ``sparsity_schedule`` inherited from the training spec is dropped.
    No graph is built until :meth:`DenseTwin.build_graph`."""
    kwargs = dict(builder_kwargs, skip_kernels=True)
    kwargs.pop("sparsity_schedule", None)
    twin_spec = pool_to_filter_spec(spec)
    layers = tuple(LayeredSpec(twin_spec, **kwargs).layers())
    fov = field_of_view((layer.kind, layer.window, layer.sparsity)
                        for layer in layers)
    return DenseTwin(twin_spec, kwargs, layers, fov)
