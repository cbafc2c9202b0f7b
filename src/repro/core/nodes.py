"""Runtime node state (the images living at computation-graph nodes).

Each node owns a forward and a backward accumulator (the paper's
``fwd_sum``/``bwd_sum``, instances of :class:`repro.sync.OrderedSum`,
which adds in edge order), the finalized forward/backward
images, and — in FFT mode — the spectral-vs-spatial *domain* in which
each accumulator operates:

ZNN accumulates the convergent convolutions of an FFT layer in the
Fourier domain and performs a single inverse transform per node (this
is where the ``f'`` inverse-FFT term of Table II comes from), so when
*all* edges entering (resp. leaving) a node are FFT-mode convolutions
with a common transform size, the node's forward (resp. backward) sum
holds half-spectra and ``finalize`` applies the inverse transform +
crop of the plan kept at wiring (``forward_plan`` / ``backward_plan``).
Otherwise contributions are summed spatially.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

import numpy as np

from repro.graph.computation_graph import NodeSpec
from repro.sync.summation import OrderedSum

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.edges import RuntimeEdge

__all__ = ["RuntimeNode"]


def _spectral_plan(edges: List["RuntimeEdge"]):
    """The first edge's plan when every edge's plan can contribute
    half-spectra and all share one transform size, else None (the sum
    is spatial).  Taken at wiring, it outlives a degraded edge's swap."""
    plans = [e.plan for e in edges]
    if (all(p is not None and p.spectral for p in plans)
            and len({p.transform_shape for p in plans}) == 1):
        return plans[0]
    return None


class RuntimeNode:
    """Mutable per-round state for one computation-graph node."""

    __slots__ = ("spec", "shape", "in_edges", "out_edges",
                 "fwd_sum", "bwd_sum", "fwd_image", "bwd_image",
                 "forward_plan", "backward_plan",
                 "_in_index", "_out_index")

    #: Fixed annotations of every node's ``sum`` pass spans.
    pass_attrs = {"backend": "sum"}

    def __init__(self, spec: NodeSpec) -> None:
        if spec.shape is None:
            raise ValueError(f"node {spec.name!r} has no shape; "
                             "propagate_shapes() first")
        self.spec = spec
        self.shape = spec.shape
        self.in_edges: List["RuntimeEdge"] = []
        self.out_edges: List["RuntimeEdge"] = []
        self.fwd_sum: Optional[OrderedSum] = None
        self.bwd_sum: Optional[OrderedSum] = None
        self.fwd_image: Optional[np.ndarray] = None
        self.bwd_image: Optional[np.ndarray] = None
        #: The plan the forward (backward) sum finalizes spectra
        #: through, or None when it sums spatially.
        self.forward_plan = None
        self.backward_plan = None
        self._in_index = {}
        self._out_index = {}

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def is_input(self) -> bool:
        return not self.in_edges

    @property
    def is_output(self) -> bool:
        return not self.out_edges

    def wire(self) -> None:
        """Create the accumulators and decide sum domains.  Called once
        after all runtime edges are attached.

        Contributions are added in edge order (a contribution that
        arrives early waits for its turn), so results are bitwise
        identical across thread counts and schedules.
        """
        self._in_index = {id(e): i for i, e in enumerate(self.in_edges)}
        self._out_index = {id(e): i for i, e in enumerate(self.out_edges)}
        self.fresh_forward_sum()
        if self.in_edges:
            self.forward_plan = _spectral_plan(self.in_edges)
        if self.out_edges:
            self.bwd_sum = OrderedSum(len(self.out_edges))
            self.backward_plan = _spectral_plan(self.out_edges)

    def reset_round(self) -> None:
        """Prepare the accumulators for the next training round."""
        if self.fwd_sum is not None:
            self.fwd_sum.reset()
        if self.bwd_sum is not None:
            self.bwd_sum.reset()

    def fresh_forward_sum(self) -> None:
        """An empty forward sum: at wiring, and where a failed walk left
        one part-filled (``reset`` refuses that: it may race adds)."""
        if self.in_edges:
            self.fwd_sum = OrderedSum(len(self.in_edges))

    def add_forward(self, edge, contribution: np.ndarray,
                    alloc=np.empty) -> bool:
        """Contribute *edge*'s forward output; True when complete."""
        assert self.fwd_sum is not None
        return self.fwd_sum.add(contribution, self._in_index[id(edge)], alloc)

    def add_backward(self, edge, contribution: np.ndarray) -> bool:
        """Contribute *edge*'s backward output; True when complete."""
        assert self.bwd_sum is not None
        return self.bwd_sum.add(contribution, self._out_index[id(edge)])

    def finalize_forward(self, alloc=np.empty) -> np.ndarray:
        """Fix the node's forward image from its completed sum, and
        reset the sum: nothing reads its contributions again."""
        assert self.fwd_sum is not None
        total = self.fwd_sum.get()
        self.fwd_sum.reset()
        if self.forward_plan is not None:
            total = self.forward_plan.finalize_forward(total, alloc)
        self.fwd_image = total
        return total

    def finalize_backward(self) -> np.ndarray:
        """Fix the node's backward image from its completed sum, and
        reset the sum as :meth:`finalize_forward` does."""
        assert self.bwd_sum is not None
        total = self.bwd_sum.get()
        self.bwd_sum.reset()
        if self.backward_plan is not None:
            total = self.backward_plan.finalize_backward(total)
        self.bwd_image = total
        return total

    def sum_forward(self, edge, contribution: np.ndarray,
                    alloc=np.empty) -> bool:
        """The node's forward sum step: contribute, and on the
        completing call (True) also fix the forward image."""
        done = self.add_forward(edge, contribution, alloc)
        if done:
            self.finalize_forward(alloc)
        return done

    def sum_backward(self, edge, contribution: np.ndarray) -> bool:
        """Backward twin of :meth:`sum_forward`."""
        done = self.add_backward(edge, contribution)
        if done:
            self.finalize_backward()
        return done

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"RuntimeNode({self.name!r}, shape={self.shape})"
