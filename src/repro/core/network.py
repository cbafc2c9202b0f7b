"""The ConvNet training network (Sections III, VI; Algorithms 1–3).

:class:`Network` binds a :class:`repro.graph.ComputationGraph` to
runtime nodes/edges and executes gradient learning as a cascade of
tasks on a pluggable engine:

* one **forward task** per edge, queued when its source image is ready,
  whose execution FORCEs the edge's pending update task first;
* one **loss-gradient task** per output node (or one joint task for
  cross-node losses), queued as its output completes;
* one **backward task** per edge, which also creates and enqueues the
  edge's **update task** at the lowest priority, capturing the images
  the gradient needs;
* a **data-provider task** seeding the input nodes.

Convergent contributions are accumulated in edge order by
:class:`repro.sync.OrderedSum`, so a network's bits do not depend on
its worker count; the thread that completes a sum finalises the node
and queues the dependents — Algorithms 1–3.

Update tasks are *deferred*: a training round completes when the
backward pass does, and pending updates either run on idle workers, are
FORCEd by the next round's forward pass, or are drained explicitly by
:meth:`Network.synchronize`.

A forward-only pass of a one-worker network (every serving twin's) has
nothing to overlap, so :meth:`Network.forward` runs it as a *walk*: each
edge's forward pass on the caller's thread, in priority order, still
FORCEing pending updates first.

Priorities come from :mod:`repro.graph.ordering`.  Convolution mode is
``"direct"``, ``"fft"``, a per-edge dict, or ``"auto"`` (layerwise
autotuning, Section IV); FFT mode memoizes spectra in a
:class:`repro.tensor.TransformCache` (Table II "(Memoized)") unless
``memoize=False``.
"""

from __future__ import annotations

import functools
import sys
import threading
import warnings
from math import prod
from typing import Dict, Mapping, Optional, Union

import numpy as np

from repro.core.edges import ConvEdge, MaxWindowEdge, RuntimeEdge, \
    SharedKernel, make_runtime_edge
from repro.core.loss import Loss, get_loss
from repro.core.nodes import RuntimeNode
from repro.core.optimizer import SGD
from repro.graph.computation_graph import ComputationGraph
from repro.graph.ordering import backward_priorities, forward_priorities
from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer
from repro.resilience.faults import active_plan
from repro.resilience.retry import RetryPolicy
from repro.scheduler.engine import LOWEST_PRIORITY, TaskEngine
from repro.scheduler.serial import SerialEngine
from repro.scheduler.strategies import make_scheduler
from repro.tensor.backends import FALLBACK, conv_backend
from repro.tensor.fft_cache import TransformCache
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_array3

__all__ = ["FreeList", "Network"]

InputsLike = Union[np.ndarray, Mapping[str, np.ndarray]]


class FreeList:
    """The one-worker forward walk's best-fit byte buffers, handed out
    as views and kept (Section VII-C), so the C heap does not trim them
    and fault them back in.  Ownership is counted, not declared: a
    buffer is free once only the list refers to it, so a walk releases
    an array by dropping its references, and one anything still holds
    (a node image, a memo entry, what a ``CustomEdge`` keeps, an
    output) is never handed out twice.  :meth:`trim` drops the free
    buffers nobody took since the last trim."""

    @staticmethod
    def _counts(buffers: list) -> list:
        """``sys.getrefcount`` of each of *buffers*, read from here."""
        return [sys.getrefcount(b) for b in buffers]

    #: ``_counts`` of a buffer only its list holds (interpreters differ).
    ALONE = _counts([np.empty(0, np.uint8)])[0]

    def __init__(self) -> None:
        self._buffers: list = []
        self._taken: set = set()

    @property
    def nbytes(self) -> int:
        """Bytes held, free and handed out."""
        return sum(b.nbytes for b in self._buffers)

    def free(self) -> list:
        """The buffers nothing but the list refers to."""
        return [b for b, n in zip(self._buffers, self._counts(self._buffers))
                if n == self.ALONE]

    def take(self, shape, dtype=np.float64) -> np.ndarray:
        """``np.empty(shape, dtype)`` as a view of the smallest free
        buffer that fits, or of a new one."""
        need = np.dtype(dtype).itemsize * prod(shape)
        buffer = min((b for b in self.free() if b.nbytes >= need),
                     key=len, default=None)
        if buffer is None:
            buffer = np.empty(need, np.uint8)
            self._buffers.append(buffer)
        self._taken.add(id(buffer))
        return buffer[:need].view(dtype).reshape(shape)

    def trim(self) -> None:
        """Drop the free buffers not taken since the last trim."""
        idle = {id(b) for b in self.free()} - self._taken
        self._buffers = [b for b in self._buffers if id(b) not in idle]
        self._taken = set()


class Network:
    """A trainable ConvNet over an arbitrary computation graph.

    Parameters
    ----------
    graph:
        The computation graph (shapes need not be propagated yet).
    input_shape:
        Shape of the input image(s); all input nodes share it.
    conv_mode:
        ``"direct"``, ``"fft"``, ``"auto"`` (layerwise autotuning), or a
        per-edge-name dict.
    memoize:
        Enable FFT memoization (Table II "(Memoized)").
    optimizer:
        An :class:`repro.core.SGD` instance.
    loss:
        Loss name or instance (see :mod:`repro.core.loss`).
    num_workers:
        1 → deterministic serial engine; >1 → threaded
        :class:`TaskEngine` with that many workers.
    scheduler:
        Scheduling strategy name: ``"priority"`` (paper), ``"fifo"``,
        ``"lifo"``, ``"work-stealing"``.
    seed:
        Seed for weight init and dropout.
    retry_policy:
        Optional :class:`repro.resilience.RetryPolicy` handed to the
        engine: failed tasks re-execute with exponential backoff; a
        slow task is never re-issued.  It governs task-cascade work
        only — ``train_step`` and threaded forwards; a one-worker
        ``forward`` is a walk with no tasks, and a pass failing there
        raises.  See ``docs/robustness.md``.
    """

    def __init__(self, graph: ComputationGraph,
                 input_shape,
                 conv_mode: Union[str, Dict[str, str]] = "direct",
                 memoize: bool = True,
                 optimizer: Optional[SGD] = None,
                 loss: Union[str, Loss] = "euclidean",
                 num_workers: int = 1,
                 scheduler: str = "priority",
                 seed: SeedLike = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        graph.validate()
        graph.propagate_shapes(input_shape)
        self.graph = graph
        self.optimizer = optimizer if optimizer is not None else SGD()
        self.loss = get_loss(loss)
        self.cache = TransformCache(enabled=memoize)
        self.rng = as_generator(seed)

        # Resolve per-edge convolution modes.
        if conv_mode == "auto":
            from repro.core.autotune import autotune_graph
            modes: Dict[str, str] = autotune_graph(graph)
        elif isinstance(conv_mode, str):
            conv_backend(conv_mode)
            modes = {e.name: conv_mode for e in graph.edges.values()
                     if e.kind == "conv"}
        else:
            modes = dict(conv_mode)

        # Runtime nodes and edges.
        self.nodes: Dict[str, RuntimeNode] = {
            name: RuntimeNode(spec) for name, spec in graph.nodes.items()}
        self.edges: Dict[str, RuntimeEdge] = {}
        for name, spec in graph.edges.items():
            edge = make_runtime_edge(
                spec, self.nodes[spec.src], self.nodes[spec.dst],
                mode=modes.get(name, FALLBACK.name), cache=self.cache,
                rng=self.rng)
            self.edges[name] = edge
            self.nodes[spec.src].out_edges.append(edge)
            self.nodes[spec.dst].in_edges.append(edge)
        for node in self.nodes.values():
            node.wire()

        fp = forward_priorities(graph)
        bp = backward_priorities(graph)
        for name, edge in self.edges.items():
            edge.fwd_priority = fp[name]
            edge.bwd_priority = bp[name]

        self.input_nodes = [n for n in self.nodes.values() if n.is_input]
        self.output_nodes = [n for n in self.nodes.values() if n.is_output]

        # The one-worker forward walk runs edges by priority (the head's
        # position in the distance-to-output ordering, which increases
        # along every path, so the order is topological).  Every sum
        # adds in edge order, so the walk's bits are the cascade's.
        self._walk = sorted(self.edges.values(),
                            key=lambda e: e.fwd_priority)
        #: After this edge's pass the walk drops its tail's image.
        self._last_reader = {e.src.name: e for e in self._walk}
        self.buffers = FreeList()

        # Engine.
        self.num_workers = int(num_workers)
        if self.num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        if self.num_workers > 1:
            try:
                plan = active_plan()
                if plan is not None:
                    plan.check("engine-start", "engine-start")
                self.engine = TaskEngine(
                    self.num_workers,
                    scheduler=make_scheduler(scheduler, self.num_workers),
                    retry_policy=retry_policy).start()
            except Exception as exc:
                # Graceful degradation: a broken parallel runtime must
                # not kill the run — fall back to the serial engine.
                get_registry().counter("resilience.engine_degraded").inc()
                warnings.warn(
                    f"parallel engine failed to start "
                    f"({type(exc).__name__}: {exc}); degrading to the "
                    "serial engine", RuntimeWarning, stacklevel=2)
                self.num_workers = 1
        if self.num_workers == 1:
            self.engine = SerialEngine(
                scheduler=make_scheduler(scheduler, 1),
                retry_policy=retry_policy)

        # Round bookkeeping.
        self._lock = threading.Lock()
        self._fwd_done = threading.Event()
        self._bwd_done = threading.Event()
        self._outputs_remaining = 0
        self._inputs_remaining = 0
        self._training = False
        self._targets: Dict[str, np.ndarray] = {}
        self._loss_parts: Dict[str, float] = {}
        self.rounds = 0

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Drain pending updates and stop the engine."""
        self.synchronize()
        self.engine.shutdown()

    def __enter__(self) -> "Network":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:  # don't mask the original error with drain failures
            try:
                self.engine.shutdown()
            except BaseException:
                pass

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def forward(self, inputs: InputsLike) -> Dict[str, np.ndarray]:
        """Run one forward pass; returns {output node name: image}.

        An input may be a stack of B >= 2 images, shape ``(B,) + input
        shape``: every pass acts on the trailing three axes, so the
        outputs stack B images, each bit for bit what its own forward
        would give.

        With one worker the pass is a walk on the calling thread
        (:meth:`_walk_forward`); with more it is the task cascade."""
        images = self._normalize(inputs, "input", stack=True)
        self._begin_round(training=False)
        if self.num_workers == 1:
            self._walk_forward(images)
        else:
            self._seed_forward(images)
            self.engine.wait_for(self._fwd_done, "forward pass")
        return {n.name: np.array(n.fwd_image) for n in self.output_nodes}

    # deterministic
    def train_step(self, inputs: InputsLike,
                   targets: InputsLike) -> float:
        """One round of gradient learning (steps 1–5 of Section III).

        Returns the loss value.  Weight updates may still be pending
        when this returns (they are FORCEd by the next round or drained
        by :meth:`synchronize`) — the paper's deferred-update design.
        """
        self._begin_round(training=True)
        self.buffers = FreeList()  # the cascade makes its own arrays
        self._targets = self._normalize(targets, "target")
        self._seed_forward(self._normalize(inputs, "input"))
        self.engine.wait_for(self._bwd_done, "training round")
        self.rounds += 1
        return self._loss_value()

    def _loss_value(self) -> float:
        """Round loss: per-node parts reduced in sorted-name order so
        the value is schedule-independent."""
        with self._lock:
            parts = dict(self._loss_parts)
        total = 0.0
        for name in sorted(parts):
            total += parts[name]
        return total

    def synchronize(self) -> None:
        """Execute every pending update task (steal-or-wait)."""
        self.engine.complete(edge.update_task
                             for edge in self.edges.values()
                             if edge.update_task is not None)

    def outputs(self) -> Dict[str, np.ndarray]:
        """Output images of the most recent forward pass."""
        return {n.name: np.array(n.fwd_image) for n in self.output_nodes
                if n.fwd_image is not None}

    @property
    def conv_modes(self) -> Dict[str, str]:
        """The mode each conv edge executes (a degraded edge reads as
        the fallback), for inspection and re-planning tooling."""
        return {name: e.effective_mode for name, e in self.edges.items()
                if isinstance(e, ConvEdge)}

    def kernels(self) -> Dict[str, np.ndarray]:
        """Current kernel of every convolution edge (copies)."""
        return {name: np.array(e.kernel.array)
                for name, e in self.edges.items() if hasattr(e, "kernel")}

    def biases(self) -> Dict[str, float]:
        """Current bias of every transfer edge."""
        return {name: e.bias for name, e in self.edges.items()
                if hasattr(e, "bias")}

    def set_kernel(self, edge_name: str, kernel: np.ndarray) -> None:
        """Overwrite one conv edge's kernel (e.g. to copy weights
        between a max-pooling net and its max-filtering equivalent)."""
        edge = self.edges[edge_name]
        if not hasattr(edge, "kernel"):
            raise ValueError(f"edge {edge_name!r} has no kernel")
        arr = np.asarray(kernel, dtype=np.float64)
        if arr.shape != edge.kernel.array.shape:
            raise ValueError(
                f"kernel shape {arr.shape} != {edge.kernel.array.shape}")
        edge.kernel.array[...] = arr

    def set_bias(self, edge_name: str, bias: float) -> None:
        edge = self.edges[edge_name]
        if not hasattr(edge, "bias"):
            raise ValueError(f"edge {edge_name!r} has no bias")
        edge.bias = float(bias)

    def share_kernels(self, edge_names) -> SharedKernel:
        """Make the named conv edges share one kernel parameter (the
        scale-invariant weight-sharing extension).  The first edge's
        kernel becomes the shared one."""
        names = list(edge_names)
        if len(names) < 2:
            raise ValueError("need at least two edges to share")
        first = self.edges[names[0]]
        if not hasattr(first, "kernel"):
            raise ValueError(f"edge {names[0]!r} has no kernel")
        shared = first.kernel
        for name in names[1:]:
            edge = self.edges[name]
            if not hasattr(edge, "kernel"):
                raise ValueError(f"edge {name!r} has no kernel")
            if edge.kernel.array.shape != shared.array.shape:
                raise ValueError("shared kernels must have equal shapes")
            edge.kernel = shared
        return shared

    def set_learning_rate(self, learning_rate: float) -> None:
        """Replace the optimizer's global learning rate (used by
        learning-rate schedules; momentum state is preserved on the
        edges, which own it)."""
        import dataclasses

        self.optimizer = dataclasses.replace(self.optimizer,
                                             learning_rate=learning_rate)

    def set_training(self, training: bool) -> None:
        """Toggle train/inference behaviour of dropout edges."""
        for edge in self.edges.values():
            if hasattr(edge, "training"):
                edge.training = bool(training)

    # ------------------------------------------------------------------
    # round machinery
    # ------------------------------------------------------------------

    def _normalize(self, images: InputsLike, kind: str,
                   stack: bool = False) -> Dict[str, np.ndarray]:
        """Check *images* (one array or a dict by node name) against the
        input nodes (*kind* ``"input"``) or the output nodes
        (``"target"``) and return them as a dict of 3D arrays — or, with
        *stack*, of equally long 4D stacks of B >= 2 where given."""
        nodes = self.input_nodes if kind == "input" else self.output_nodes

        def check(value, name):
            if stack and np.ndim(value) == 4 and len(value) > 1:
                return np.ascontiguousarray(value, dtype=np.float64)
            return check_array3(value, name)

        if isinstance(images, Mapping):
            arrays = {k: check(v, f"{kind} {k!r}")
                      for k, v in images.items()}
        else:
            if len(nodes) != 1:
                role = "input" if kind == "input" else "output"
                raise ValueError(f"network has {len(nodes)} {role} nodes; "
                                 f"pass a dict of {kind}s")
            arrays = {nodes[0].name: check(images, kind)}
        for node in nodes:
            if node.name not in arrays:
                raise ValueError(f"missing {kind} for node {node.name!r}")
            if arrays[node.name].shape[-3:] != node.shape:
                raise ValueError(
                    f"{kind} {node.name!r} has shape "
                    f"{arrays[node.name].shape}, expected {node.shape}")
        if len({a.shape[:-3] for a in arrays.values()}) > 1:
            raise ValueError(f"{kind}s stack unequal numbers of images")
        return arrays

    def _begin_round(self, training: bool) -> None:
        if getattr(self.engine, "errors", None):
            raise self.engine.errors[0]
        self.cache.next_round()
        for node in self.nodes.values():
            node.reset_round()
        with self._lock:
            self._training = training
            self._outputs_remaining = len(self.output_nodes)
            self._inputs_remaining = len(self.input_nodes)
            self._loss_parts = {}
        self._fwd_done.clear()
        self._bwd_done.clear()

    def _seed_forward(self, images: Dict[str, np.ndarray]) -> None:
        def provider() -> None:
            for node in self.input_nodes:
                node.fwd_image = images[node.name].copy()
                self._node_forward_complete(node)

        self.engine.spawn(provider, priority=-1, name="provider")

    # -- forward -----------------------------------------------------------

    def _walk_forward(self, images: Dict[str, np.ndarray]) -> None:
        """Algorithm 1 without tasks: each edge's forward pass, in
        ``_walk`` order, on this thread.  An edge still FORCEs its
        pending update first (with one worker nothing else can be
        running it, so it is queued or done) and still counts as a
        ``fwd`` occurrence of an installed fault plan; no task, queue
        entry or ``engine.tasks`` count is made.  Its arrays come from
        ``buffers``, and only the output images outlive it."""
        take = self.buffers.take
        for node in self.output_nodes:  # free for this walk to reuse
            node.fwd_image = None
        for node in self.input_nodes:
            node.fwd_image = take(images[node.name].shape)
            np.copyto(node.fwd_image, images[node.name])
        plan = active_plan()
        try:
            for edge in self._walk:
                if plan is not None:
                    plan.check("fwd", f"fwd:{edge.name}")
                update = edge.update_task
                if update is not None and update.try_steal():
                    update.execute()
                self._pass("sum", edge.dst, edge.dst.sum_forward, edge,
                           self._pass("fwd", edge, edge.forward,
                                      edge.src.fwd_image, take), take)
                if isinstance(edge, MaxWindowEdge):  # no backward follows
                    edge._input = None
                if self._last_reader[edge.src.name] is edge:
                    edge.src.fwd_image = None
                    self.cache.drop("img", edge.src.name)
        except BaseException:  # so the network can run again
            for node in self.nodes.values():
                node.fresh_forward_sum()
            raise
        self.buffers.trim()

    def _spawn_forward_task(self, edge: RuntimeEdge) -> None:
        """Queue the FORWARD-TASK of Algorithm 1 for *edge*."""

        def forward_task() -> None:
            # FORCE the pending update (from the previous round) and run
            # DO-FORWARD afterwards, on whichever thread wins.
            self.engine.force(edge.update_task, lambda: self._do_forward(edge),
                              name=f"do-fwd:{edge.name}")

        self.engine.spawn(forward_task, priority=edge.fwd_priority,
                          name=f"fwd:{edge.name}")

    def _pass(self, op: str, owner, fn, *args):
        """The one pass-span site: with tracing on, every edge
        transform (``fwd``/``bwd``), update (``upd``) and node
        accumulation (``sum``) is a child span of whichever task ran it
        — a FORCEd update lands inside the ``fwd:`` task that stole it —
        or, in a one-worker forward walk, of the caller's open span,
        annotated after the pass with its owner's ``pass_attrs`` (a
        degraded FFT edge reports ``direct``).  With tracing off: one
        attribute read."""
        tracer = get_tracer()
        if not tracer.enabled:
            return fn(*args)
        name = owner.name
        with tracer.span(f"{op}.pass:{name}", "pass", edge=name,
                         op=op) as span:
            try:
                return fn(*args)
            finally:
                span.set(**owner.pass_attrs)

    def _do_forward(self, edge: RuntimeEdge) -> None:
        contribution = self._pass("fwd", edge, edge.forward,
                                  edge.src.fwd_image)
        if self._pass("sum", edge.dst, edge.dst.sum_forward, edge,
                      contribution):
            self._node_forward_complete(edge.dst)

    def _node_forward_complete(self, node: RuntimeNode) -> None:
        if node.is_output:
            self._output_ready(node)
            return
        for out_edge in node.out_edges:
            self._spawn_forward_task(out_edge)

    def _output_ready(self, node: RuntimeNode) -> None:
        with self._lock:
            self._outputs_remaining -= 1
            last = self._outputs_remaining == 0
            training = self._training
        if not training:
            if last:
                self._fwd_done.set()
            return
        if self.loss.per_node:
            self._spawn_lossgrad(node)
            if last:
                self._fwd_done.set()
        elif last:
            self._spawn_joint_lossgrad()
            self._fwd_done.set()

    # -- loss gradient -------------------------------------------------------

    def _spawn_lossgrad(self, node: RuntimeNode) -> None:
        def lossgrad() -> None:
            value, grad = self.loss.node_value_and_gradient(
                node.fwd_image, self._targets[node.name])
            with self._lock:
                self._loss_parts[node.name] = value
            node.bwd_image = grad
            self._node_backward_complete(node)

        self.engine.spawn(lossgrad, priority=-1,
                          name=f"lossgrad:{node.name}")

    def _spawn_joint_lossgrad(self) -> None:
        def lossgrad() -> None:
            outputs = {n.name: n.fwd_image for n in self.output_nodes}
            value, grads = self.loss.joint_value_and_gradient(
                outputs, self._targets)
            with self._lock:
                self._loss_parts["__joint__"] = value
            for n in self.output_nodes:
                n.bwd_image = grads[n.name]
                self._node_backward_complete(n)

        self.engine.spawn(lossgrad, priority=-1, name="lossgrad:joint")

    # -- backward -------------------------------------------------------------

    def _node_backward_complete(self, node: RuntimeNode) -> None:
        if node.is_input:
            with self._lock:
                self._inputs_remaining -= 1
                last = self._inputs_remaining == 0
            if last:
                self._bwd_done.set()
            return
        for in_edge in node.in_edges:
            self.engine.spawn(lambda e=in_edge: self._backward_task(e),
                              priority=in_edge.bwd_priority,
                              name=f"bwd:{in_edge.name}")

    def _backward_task(self, edge: RuntimeEdge) -> None:
        contribution = self._pass("bwd", edge, edge.backward,
                                  edge.dst.bwd_image)
        if edge.is_trainable:
            edge.update_task = self.engine.spawn(
                functools.partial(self._pass, "upd", edge,
                                  edge.capture_update(self.optimizer)),
                priority=LOWEST_PRIORITY, name=f"upd:{edge.name}")
        if self._pass("sum", edge.src, edge.src.sum_backward, edge,
                      contribution):
            self._node_backward_complete(edge.src)
