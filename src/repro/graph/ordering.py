"""Node orderings and task priorities (Section VI-A).

Two unique strict orderings of the computation-graph nodes are defined,
by the **longest distance** (in edges) to any output node and to any
input node respectively, both in decreasing order; nodes at equal
distance are tie-broken deterministically (by layer, then name).

* The **forward** task of edge ``e = (u, v)`` gets priority equal to
  the position of ``v`` in the distance-to-output ordering — tasks with
  the longest remaining path to a sink run first, favouring low-latency
  schedules, and all edges converging on the same node share one
  priority value so they run back-to-back (temporal locality of the
  convergent sum).
* The **backward** task gets the position of ``u`` in the
  distance-to-input ordering.
* **Update** tasks get the engine's lowest priority.

Smaller priority values are more urgent throughout the library.
"""

from __future__ import annotations

from typing import Dict, List

from repro.graph.computation_graph import ComputationGraph, NodeSpec

__all__ = [
    "longest_distance_to_outputs",
    "longest_distance_to_inputs",
    "output_distance_ordering",
    "input_distance_ordering",
    "forward_priorities",
    "backward_priorities",
]


def longest_distance_to_outputs(graph: ComputationGraph) -> Dict[str, int]:
    """Longest path length (in edges) from each node to any output node."""
    dist: Dict[str, int] = {}
    for node in reversed(graph.topological_order()):
        if node.is_output:
            dist[node.name] = 0
        else:
            dist[node.name] = 1 + max(dist[e.dst] for e in node.out_edges)
    return dist


def longest_distance_to_inputs(graph: ComputationGraph) -> Dict[str, int]:
    """Longest path length (in edges) from any input node to each node."""
    dist: Dict[str, int] = {}
    for node in graph.topological_order():
        if node.is_input:
            dist[node.name] = 0
        else:
            dist[node.name] = 1 + max(dist[e.src] for e in node.in_edges)
    return dist


def _ordering(graph: ComputationGraph, dist: Dict[str, int]) -> Dict[str, int]:
    """Unique strict ordering by decreasing distance; ties broken by
    (layer, name) so same-layer nodes sit adjacently — the paper's
    "ordered in some unique way" chosen for temporal locality."""
    nodes: List[NodeSpec] = list(graph.nodes.values())
    nodes.sort(key=lambda n: (-dist[n.name], n.layer, n.name))
    return {n.name: i for i, n in enumerate(nodes)}


def output_distance_ordering(graph: ComputationGraph) -> Dict[str, int]:
    """Position of each node in the distance-to-output ordering."""
    return _ordering(graph, longest_distance_to_outputs(graph))


def input_distance_ordering(graph: ComputationGraph) -> Dict[str, int]:
    """Position of each node in the distance-to-input ordering."""
    return _ordering(graph, longest_distance_to_inputs(graph))


def forward_priorities(graph: ComputationGraph) -> Dict[str, int]:
    """Priority of the forward task of every edge: position of the
    edge's head node in the distance-to-output ordering."""
    ordering = output_distance_ordering(graph)
    return {e.name: ordering[e.dst] for e in graph.edges.values()}


def backward_priorities(graph: ComputationGraph) -> Dict[str, int]:
    """Priority of the backward task of every edge: position of the
    edge's tail node in the distance-to-input ordering."""
    ordering = input_distance_ordering(graph)
    return {e.name: ordering[e.src] for e in graph.edges.values()}
