"""The ConvNet computation graph (Section II, Fig 1).

A directed acyclic graph whose nodes represent 3D images and whose
edges represent image-filtering operations: convolution (possibly
sparse), max-pooling, max-filtering, or transfer function.  When
multiple edges converge on a node, the node sums their outputs.

This module is purely structural — executable edge semantics (the
actual numpy work) are built on top in :mod:`repro.core`.  Keeping the
structure separate lets the PRAM analysis and the discrete-event
simulator consume the same graphs without touching any tensors.

ZNN "works for general computation graphs"; the common-ConvNet
properties of Section II (convergent edges are convolutions, layered
organisation, …) are available as advisory checks, not hard
requirements (:meth:`ComputationGraph.check_convnet_properties`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.utils.shapes import Shape3, as_shape3, layer_output_shape

__all__ = ["EdgeKind", "NodeSpec", "EdgeSpec", "ComputationGraph"]

#: Edge kinds.  ``conv`` edges are trainable (kernel + the head node's
#: bias is carried by transfer edges in ZNN; we attach biases to
#: transfer edges, matching "Transfer function adds a number called the
#: bias").
EdgeKind = str
EDGE_KINDS: Tuple[str, ...] = ("conv", "transfer", "pool", "filter",
              "dropout", "custom")


@dataclass
class NodeSpec:
    """A 3D image node.

    ``shape`` is filled in by :meth:`ComputationGraph.propagate_shapes`.
    """

    name: str
    layer: int = 0
    shape: Optional[Shape3] = None
    in_edges: List["EdgeSpec"] = field(default_factory=list)
    out_edges: List["EdgeSpec"] = field(default_factory=list)

    @property
    def is_input(self) -> bool:
        return not self.in_edges

    @property
    def is_output(self) -> bool:
        return not self.out_edges

    def __repr__(self) -> str:
        return f"NodeSpec({self.name!r}, layer={self.layer}, shape={self.shape})"


@dataclass
class EdgeSpec:
    """An image-filtering operation between two nodes.

    Parameters relevant per kind:

    * ``conv``: ``kernel`` (k per dim), ``sparsity``
    * ``pool``: ``window`` (p per dim)
    * ``filter``: ``window``, ``sparsity``
    * ``transfer``: ``transfer`` (name in
      :data:`repro.tensor.TRANSFER_FUNCTIONS`)
    * ``dropout``: ``rate``
    """

    name: str
    src: str
    dst: str
    kind: EdgeKind
    kernel: Optional[Shape3] = None
    window: Optional[Shape3] = None
    sparsity: Shape3 = (1, 1, 1)
    transfer: Optional[str] = None
    rate: float = 0.0
    op: Optional[str] = None

    def __post_init__(self) -> None:
        if self.kind not in EDGE_KINDS:
            raise ValueError(
                f"edge kind must be one of {EDGE_KINDS}, got {self.kind!r}")
        if self.kind == "conv" and self.kernel is None:
            raise ValueError(f"conv edge {self.name!r} requires a kernel shape")
        if self.kind in ("pool", "filter") and self.window is None:
            raise ValueError(f"{self.kind} edge {self.name!r} requires a window")
        if self.kind == "transfer" and self.transfer is None:
            raise ValueError(f"transfer edge {self.name!r} requires a transfer name")
        if self.kind == "custom" and self.op is None:
            raise ValueError(
                f"custom edge {self.name!r} requires a registered op name")
        if self.kernel is not None:
            self.kernel = as_shape3(self.kernel, name="kernel")
        if self.window is not None:
            self.window = as_shape3(self.window, name="window")
        self.sparsity = as_shape3(self.sparsity, name="sparsity")

    @property
    def is_trainable(self) -> bool:
        """Conv edges carry kernels; transfer edges carry biases."""
        return self.kind in ("conv", "transfer")

    def output_shape(self, input_shape: Shape3) -> Shape3:
        """Shape this edge produces from *input_shape* (forward pass)."""
        if self.kind == "custom":
            from repro.core.custom import get_custom_op
            return get_custom_op(self.op).shape(input_shape)
        return layer_output_shape(
            self.kind, self.kernel if self.kind == "conv" else self.window,
            self.sparsity, input_shape)

    def __repr__(self) -> str:
        return (f"EdgeSpec({self.name!r}, {self.src}->{self.dst}, "
                f"kind={self.kind!r})")


class ComputationGraph:
    """A DAG of :class:`NodeSpec` and :class:`EdgeSpec`."""

    def __init__(self) -> None:
        self.nodes: Dict[str, NodeSpec] = {}
        self.edges: Dict[str, EdgeSpec] = {}

    # -- construction -----------------------------------------------------

    def add_node(self, name: str, layer: int = 0) -> NodeSpec:
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        node = NodeSpec(name=name, layer=layer)
        self.nodes[name] = node
        return node

    def add_edge(self, name: str, src: str, dst: str, kind: EdgeKind,
                 **params) -> EdgeSpec:
        if name in self.edges:
            raise ValueError(f"duplicate edge {name!r}")
        if src not in self.nodes:
            raise ValueError(f"unknown source node {src!r}")
        if dst not in self.nodes:
            raise ValueError(f"unknown destination node {dst!r}")
        edge = EdgeSpec(name=name, src=src, dst=dst, kind=kind, **params)
        self.edges[name] = edge
        self.nodes[src].out_edges.append(edge)
        self.nodes[dst].in_edges.append(edge)
        return edge

    # -- queries ------------------------------------------------------------

    @property
    def input_nodes(self) -> List[NodeSpec]:
        return [n for n in self.nodes.values() if n.is_input]

    @property
    def output_nodes(self) -> List[NodeSpec]:
        return [n for n in self.nodes.values() if n.is_output]

    def topological_order(self) -> List[NodeSpec]:
        """Kahn topological sort; raises on cycles."""
        indegree = {name: len(n.in_edges) for name, n in self.nodes.items()}
        ready = sorted(name for name, d in indegree.items() if d == 0)
        order: List[NodeSpec] = []
        queue = list(ready)
        while queue:
            name = queue.pop(0)
            node = self.nodes[name]
            order.append(node)
            for edge in node.out_edges:
                indegree[edge.dst] -= 1
                if indegree[edge.dst] == 0:
                    queue.append(edge.dst)
        if len(order) != len(self.nodes):
            raise ValueError("computation graph contains a cycle")
        return order

    def validate(self) -> None:
        """Structural validation: acyclic, connected inputs/outputs."""
        self.topological_order()
        if not self.input_nodes:
            raise ValueError("graph has no input nodes")
        if not self.output_nodes:
            raise ValueError("graph has no output nodes")

    def check_convnet_properties(self) -> List[str]:
        """Advisory checks for the common-ConvNet properties of
        Section II.  Returns a list of human-readable violations
        (empty = all properties hold); never raises."""
        problems: List[str] = []
        for node in self.nodes.values():
            if len(node.in_edges) > 1:
                non_conv = [e.name for e in node.in_edges if e.kind != "conv"]
                if non_conv:
                    problems.append(
                        f"node {node.name!r} has convergent non-convolution "
                        f"edges: {non_conv}")
            elif len(node.in_edges) == 1:
                # A sole incoming edge should be a nonlinear filtering op.
                edge = node.in_edges[0]
                if edge.kind == "conv" and len(self.nodes[edge.src].in_edges) == 1:
                    src_in = self.nodes[edge.src].in_edges[0]
                    if src_in.kind == "conv":
                        problems.append(
                            f"adjacent convolutions {src_in.name!r} -> "
                            f"{edge.name!r} could be collapsed")
        return problems

    # -- shape propagation ----------------------------------------------------

    def propagate_shapes(self, input_shape: int | Sequence[int]) -> None:
        """Assign shapes to every node from a common input shape.

        All input nodes receive *input_shape*; convergent edges must
        agree on the destination shape.
        """
        shape = as_shape3(input_shape, name="input_shape")
        for node in self.nodes.values():
            node.shape = None
        for node in self.input_nodes:
            node.shape = shape
        for node in self.topological_order():
            if node.shape is None:
                raise ValueError(f"node {node.name!r} unreachable from inputs")
            for edge in node.out_edges:
                out = edge.output_shape(node.shape)
                dst = self.nodes[edge.dst]
                if dst.shape is None:
                    dst.shape = out
                elif dst.shape != out:
                    raise ValueError(
                        f"shape mismatch at node {dst.name!r}: "
                        f"{dst.shape} vs {out} via edge {edge.name!r}")

    # -- misc -------------------------------------------------------------------

    def layers(self) -> Dict[int, List[NodeSpec]]:
        """Nodes grouped by their layer index."""
        out: Dict[int, List[NodeSpec]] = {}
        for node in self.nodes.values():
            out.setdefault(node.layer, []).append(node)
        return {k: sorted(v, key=lambda n: n.name) for k, v in sorted(out.items())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ComputationGraph(nodes={len(self.nodes)}, "
                f"edges={len(self.edges)})")
