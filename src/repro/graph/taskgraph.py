"""Task dependency graph (Section V, Fig 3).

One round of gradient learning unrolls the computation graph into
tasks: forward / backward / update per edge, plus the *data provider*
and per-output *loss gradient* tasks.  Following the paper's Fig 3,
steps 3–5 of one iteration are followed by steps 1–2 of the next, so the
round is ordered: loss gradient → backward pass → updates → (provider,
forward pass), with each edge's forward task additionally depending on
its own update task — exactly the dependency the FORCE protocol handles
in the live engine.

Convolution edges can be expanded in two modes:

* ``"direct"`` — one task per pass per edge, each costing
  ``n'^3 k^3`` FLOPs;
* ``"fft"`` — the memoized FFT decomposition ZNN actually executes:
  per-node image FFTs and inverse FFTs, per-edge kernel FFTs (lowest
  priority, re-done after each update), and per-edge spectral products,
  with node sums accumulated in the spectral domain.

The structure is deliberately compact parallel arrays rather than a
graph-library object: wide networks produce hundreds of thousands of
tasks and the discrete-event simulator walks them in tight loops.

Priorities follow :mod:`repro.graph.ordering`: forward tasks take the
head node's position in the distance-to-output ordering, backward tasks
the tail node's position in the distance-to-input ordering, and update
(and kernel re-transform) tasks the engine-wide lowest priority.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Sequence

from repro.graph.computation_graph import ComputationGraph, EdgeSpec
from repro.graph.ordering import (
    input_distance_ordering,
    output_distance_ordering,
)
from repro.pram.costs import (
    DEFAULT_FFT_CONSTANT,
    direct_conv_task_cost,
    fft_cost,
    filter_task_cost,
    pointwise_product_cost,
    pool_task_cost,
    transfer_task_cost,
)
from repro.tensor.backends import FALLBACK, conv_backend
from repro.utils.shapes import voxels

__all__ = ["TaskGraph", "build_task_graph", "LOWEST_TASK_PRIORITY"]

#: Matches repro.scheduler.engine.LOWEST_PRIORITY.
LOWEST_TASK_PRIORITY = 2**31


@dataclass
class TaskGraph:
    """Compact integer-indexed task DAG with costs and priorities."""

    names: List[str] = field(default_factory=list)
    kinds: List[str] = field(default_factory=list)
    costs: List[float] = field(default_factory=list)
    priorities: List[int] = field(default_factory=list)
    successors: List[List[int]] = field(default_factory=list)
    indegree: List[int] = field(default_factory=list)
    ids: Dict[str, int] = field(default_factory=dict)

    def add_task(self, name: str, kind: str, cost: float,
                 priority: int) -> int:
        if name in self.ids:
            raise ValueError(f"duplicate task {name!r}")
        tid = len(self.names)
        self.ids[name] = tid
        self.names.append(name)
        self.kinds.append(kind)
        self.costs.append(float(cost))
        self.priorities.append(int(priority))
        self.successors.append([])
        self.indegree.append(0)
        return tid

    def add_dependency(self, before: int, after: int) -> None:
        """Declare that *after* cannot start until *before* completes."""
        self.successors[before].append(after)
        self.indegree[after] += 1

    def depend_on_all(self, befores: Sequence[int], after: int) -> None:
        for b in befores:
            self.add_dependency(b, after)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.names)

    @property
    def total_cost(self) -> float:
        """Serial work T1 of one round (sum of all task costs)."""
        return sum(self.costs)

    def critical_path_cost(self) -> float:
        """Length (in FLOPs) of the longest dependency chain — the
        T-infinity of this particular task decomposition."""
        order = self.topological_order()
        finish = [0.0] * len(self)
        best = 0.0
        # Process in reverse topological order: longest path *from* each task.
        for tid in reversed(order):
            tail = max((finish[s] for s in self.successors[tid]), default=0.0)
            finish[tid] = self.costs[tid] + tail
            best = max(best, finish[tid])
        return best

    def topological_order(self) -> List[int]:
        indeg = list(self.indegree)
        ready = [i for i, d in enumerate(indeg) if d == 0]
        order: List[int] = []
        while ready:
            tid = ready.pop()
            order.append(tid)
            for s in self.successors[tid]:
                indeg[s] -= 1
                if indeg[s] == 0:
                    ready.append(s)
        if len(order) != len(self):
            raise ValueError("task graph contains a cycle")
        return order

    def validate(self) -> None:
        self.topological_order()

    def count_kinds(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for k in self.kinds:
            out[k] = out.get(k, 0) + 1
        return out


def build_task_graph(graph: ComputationGraph,
                     conv_mode: str | Dict[str, str] = "direct",
                     fft_constant: float = DEFAULT_FFT_CONSTANT,
                     include_updates: bool = True) -> TaskGraph:
    """Unroll *graph* (shapes propagated) into one round's task DAG.

    Parameters
    ----------
    conv_mode:
        ``"direct"`` or ``"fft"`` globally, or a per-edge-name mapping
        (the autotuner's per-layer choice).
    include_updates:
        False builds a pure inference+backward graph (no update tasks,
        no forward-on-update dependencies).
    """
    for node in graph.nodes.values():
        if node.shape is None:
            raise ValueError(
                "propagate_shapes() must run before build_task_graph()")

    def spectral(edge: EdgeSpec) -> bool:
        """Does *edge* unroll into the memoized-FFT decomposition?"""
        if edge.kind != "conv":
            return False
        m = conv_mode.get(edge.name, FALLBACK.name) \
            if isinstance(conv_mode, dict) else conv_mode
        return conv_backend(m).spectral

    pos_out = output_distance_ordering(graph)
    pos_in = input_distance_ordering(graph)

    tg = TaskGraph()
    LOW = LOWEST_TASK_PRIORITY

    # ---- root tasks ------------------------------------------------------
    provider = tg.add_task(
        "provider", "provider",
        cost=float(sum(voxels(n.shape) for n in graph.input_nodes)),
        priority=-1)
    lossgrad: Dict[str, int] = {}
    for node in graph.output_nodes:
        lossgrad[node.name] = tg.add_task(
            f"lossgrad:{node.name}", "lossgrad",
            cost=float(voxels(node.shape)), priority=pos_in[node.name])

    # ---- backward pass ---------------------------------------------------
    # bwd_ready[v]: tasks whose completion makes v's backward image
    # available to the backward tasks of v's in-edges.
    bwd_ready: Dict[str, List[int]] = {}
    bwd_task: Dict[str, int] = {}       # per-edge spatial backward task
    fft_grad: Dict[str, int] = {}       # per-node gradient FFT (fft mode)
    prod_bwd: Dict[str, int] = {}

    topo = graph.topological_order()
    for node in reversed(topo):
        v = node.name
        if node.is_output:
            bwd_ready[v] = [lossgrad[v]]
            continue
        fft_edges = [e for e in node.out_edges if spectral(e)]
        other_edges = [e for e in node.out_edges if not spectral(e)]
        producers: List[int] = []
        for e in other_edges:
            w = graph.nodes[e.dst]
            if e.kind == "conv":
                cost = direct_conv_task_cost(node.shape, e.kernel, e.sparsity)
            elif e.kind == "pool":
                cost = pool_task_cost(node.shape)
            elif e.kind == "filter":
                cost = filter_task_cost(node.shape, e.window, backward=True)
            else:  # transfer / dropout
                cost = transfer_task_cost(node.shape)
            t = tg.add_task(f"bwd:{e.name}", "backward", cost, pos_in[e.src])
            tg.depend_on_all(bwd_ready[e.dst], t)
            bwd_task[e.name] = t
            producers.append(t)
        for e in fft_edges:
            w = e.dst
            if w not in fft_grad:
                fft_grad[w] = tg.add_task(
                    f"fft_grad:{w}", "fft", fft_cost(node.shape, fft_constant),
                    pos_in[w])
                tg.depend_on_all(bwd_ready[w], fft_grad[w])
            t = tg.add_task(f"prod_bwd:{e.name}", "backward",
                            pointwise_product_cost(node.shape), pos_in[e.src])
            tg.add_dependency(fft_grad[w], t)
            prod_bwd[e.name] = t
            producers.append(t)
        if fft_edges:
            ifft = tg.add_task(f"ifft_bwd:{v}", "fft",
                               fft_cost(node.shape, fft_constant), pos_in[v])
            tg.depend_on_all(producers, ifft)
            bwd_ready[v] = [ifft]
        else:
            bwd_ready[v] = producers

    # ---- updates ---------------------------------------------------------
    upd_task: Dict[str, int] = {}
    fft_kernel: Dict[str, int] = {}
    if include_updates:
        for e in graph.edges.values():
            u_shape = graph.nodes[e.src].shape
            v_shape = graph.nodes[e.dst].shape
            if e.kind == "conv":
                if spectral(e):
                    cost = (fft_cost(u_shape, fft_constant)
                            + pointwise_product_cost(u_shape))
                    dep = fft_grad.get(e.dst)
                    deps = [dep] if dep is not None else bwd_ready[e.dst]
                else:
                    cost = direct_conv_task_cost(u_shape, e.kernel, e.sparsity)
                    deps = [bwd_task[e.name]]
                t = tg.add_task(f"upd:{e.name}", "update", cost, LOW)
                tg.depend_on_all(deps, t)
                upd_task[e.name] = t
                if spectral(e):
                    # The next forward needs the updated kernel's spectrum.
                    fk = tg.add_task(f"fft_kernel:{e.name}", "fft",
                                     fft_cost(u_shape, fft_constant), LOW)
                    tg.add_dependency(t, fk)
                    fft_kernel[e.name] = fk
            elif e.kind == "transfer":
                t = tg.add_task(f"upd:{e.name}", "update",
                                transfer_task_cost(v_shape), LOW)
                tg.depend_on_all([bwd_task[e.name]], t)
                upd_task[e.name] = t

    # ---- forward pass ----------------------------------------------------
    fwd_ready: Dict[str, List[int]] = {}
    fft_img: Dict[str, int] = {}
    for node in topo:
        u = node.name
        if node.is_input:
            fwd_ready[u] = [provider]
            continue
        fft_edges = [e for e in node.in_edges if spectral(e)]
        other_edges = [e for e in node.in_edges if not spectral(e)]
        producers: List[int] = []
        for e in other_edges:
            src = graph.nodes[e.src]
            if e.kind == "conv":
                cost = direct_conv_task_cost(src.shape, e.kernel, e.sparsity)
            elif e.kind == "pool":
                cost = pool_task_cost(src.shape)
            elif e.kind == "filter":
                cost = filter_task_cost(src.shape, e.window)
            else:
                cost = transfer_task_cost(node.shape)
            t = tg.add_task(f"fwd:{e.name}", "forward", cost, pos_out[e.dst])
            tg.depend_on_all(fwd_ready[e.src], t)
            ut = upd_task.get(e.name)
            if ut is not None:
                tg.add_dependency(ut, t)
            producers.append(t)
        for e in fft_edges:
            src = graph.nodes[e.src]
            if e.src not in fft_img:
                fft_img[e.src] = tg.add_task(
                    f"fft_img:{e.src}", "fft",
                    fft_cost(src.shape, fft_constant), pos_out[e.src])
                tg.depend_on_all(fwd_ready[e.src], fft_img[e.src])
            t = tg.add_task(f"prod_fwd:{e.name}", "forward",
                            pointwise_product_cost(src.shape), pos_out[e.dst])
            tg.add_dependency(fft_img[e.src], t)
            fk = fft_kernel.get(e.name)
            if fk is not None:
                tg.add_dependency(fk, t)
            producers.append(t)
        if fft_edges:
            ifft = tg.add_task(f"ifft_fwd:{u}", "fft",
                               fft_cost(graph.nodes[fft_edges[0].src].shape,
                                        fft_constant),
                               pos_out[u])
            tg.depend_on_all(producers, ifft)
            fwd_ready[u] = [ifft]
        else:
            fwd_ready[u] = producers

    return tg
