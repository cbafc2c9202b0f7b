"""Per-process network replicas and gradient capture.

Data-parallel training runs one full task-graph replica per process.
Each replica computes whole-model gradients for its shard of the global
minibatch; only the coordinator applies optimizer steps.  Three pieces
make that work:

* :class:`ModelConfig` — a picklable recipe from which every process
  builds an *identical* network (same graph, same seed → same initial
  weights, same per-edge convolution modes).
* :class:`GradientCollector` — an optimizer stand-in implementing the
  same duck-typed interface the edges call
  (:meth:`repro.core.SGD.update` / ``update_scalar``).  It records the
  exact gradient arrays the real optimizer would have consumed and
  leaves the parameters untouched.
* :class:`Replica` — one process's network plus a canonical flat
  parameter/gradient layout, so parameters and gradients travel between
  processes as single contiguous ``float64`` vectors.

The layout must be identical in every process: kernels are deduped by
weight-sharing group and keyed by the group's alphabetically-first edge
(the same stable id checkpointing uses), then sorted; biases follow,
sorted by edge name.  Layout order only affects where bytes live in the
shared vectors, never arithmetic order, so it cannot perturb results —
but it must agree across processes for the bytes to mean anything.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.network import Network
from repro.core.optimizer import SGD, UpdateState
from repro.core.serialization import kernel_groups
from repro.graph.builders import build_layered_network
from repro.graph.computation_graph import ComputationGraph

__all__ = ["GradientCollector", "ModelConfig", "ParamSlot", "Replica"]


class GradientCollector:
    """Records gradients instead of applying them.

    Edges call ``optimizer.update(params, g, state, eta)`` (kernels)
    and ``optimizer.update_scalar(value, g, state, eta)`` (biases) from
    their deferred update tasks; a collector installed as the network's
    optimizer captures each ``g`` keyed by ``id(state)`` — the one
    object that is unique per parameter even under weight sharing.
    Contributions from edges sharing a kernel are summed (the serial
    engine drains update tasks in deterministic order).
    """

    def __init__(self) -> None:
        self.array_grads: Dict[int, np.ndarray] = {}
        self.scalar_grads: Dict[int, float] = {}

    def update(self, params: np.ndarray, gradient: np.ndarray,
               state: UpdateState, eta: Optional[float] = None) -> None:
        key = id(state)
        if key in self.array_grads:
            self.array_grads[key] = self.array_grads[key] + gradient
        else:
            self.array_grads[key] = np.array(gradient, dtype=np.float64)

    def update_scalar(self, value: float, gradient: float,
                      state: UpdateState,
                      eta: Optional[float] = None) -> float:
        key = id(state)
        self.scalar_grads[key] = (self.scalar_grads.get(key, 0.0)
                                  + float(gradient))
        return value  # parameter unchanged

    def clear(self) -> None:
        self.array_grads.clear()
        self.scalar_grads.clear()


@dataclass(frozen=True)
class ModelConfig:
    """Everything needed to build identical network replicas.

    Every field is picklable so the config crosses the ``spawn``
    boundary.  The graph comes from the layered builder (``spec`` +
    ``layered_kwargs``) — the same recipe in every process yields the
    same graph, and the same ``seed`` yields bitwise-identical initial
    weights.

    ``conv_mode`` may be ``"auto"`` only on the coordinator: workers
    must receive the *resolved* per-edge dict (autotuning measures the
    local machine and could disagree between processes), which
    :meth:`resolved` produces.
    """

    input_shape: Tuple[int, int, int]
    spec: str = ""
    layered_kwargs: Mapping[str, object] = field(default_factory=dict)
    #: Path to a spec file; overrides ``spec``/``layered_kwargs`` (the
    #: file must be readable by every worker process).
    spec_path: Optional[str] = None
    conv_mode: Union[str, Mapping[str, str]] = "direct"
    loss: str = "euclidean"
    seed: int = 0
    learning_rate: float = 0.01
    momentum: float = 0.0
    weight_decay: float = 0.0
    memoize: bool = True

    def build_graph(self) -> ComputationGraph:
        if self.spec_path is not None:
            from repro.graph.specfile import load_spec

            return load_spec(self.spec_path)
        if not self.spec:
            raise ValueError("ModelConfig needs spec or spec_path")
        return build_layered_network(self.spec, **dict(self.layered_kwargs))

    def build_network(self) -> Network:
        """A single-process deterministic replica of the model."""
        mode = self.conv_mode
        if not isinstance(mode, str):
            mode = dict(mode)
        return Network(
            self.build_graph(),
            input_shape=self.input_shape,
            conv_mode=mode,
            memoize=self.memoize,
            optimizer=SGD(learning_rate=self.learning_rate,
                          momentum=self.momentum,
                          weight_decay=self.weight_decay),
            loss=self.loss,
            num_workers=1,
            seed=self.seed)

    def resolved(self, network: Network) -> "ModelConfig":
        """The config workers should receive: ``conv_mode`` pinned to
        the per-edge modes *network* actually resolved (important for
        ``"auto"``, where autotuning must happen exactly once)."""
        return replace(self, conv_mode=dict(network.conv_modes))


@dataclass(frozen=True)
class ParamSlot:
    """One parameter's place in the flat vector."""

    name: str          # stable id: first sharing edge (kernel) / edge
    kind: str          # "kernel" | "bias"
    offset: int
    size: int
    shape: Tuple[int, ...]


class Replica:
    """A process-local network with a canonical flat parameter layout.

    The layout (kernel groups sorted by stable name, then biases sorted
    by edge name) is a pure function of the graph, so every process
    derives the same one.
    """

    def __init__(self, network: Network, base_seed: int = 0) -> None:
        self.network = network
        self.base_seed = int(base_seed)
        self.slots: List[ParamSlot] = []
        self._kernels: Dict[str, object] = {}   # stable name -> SharedKernel
        self._transfers: Dict[str, object] = {}  # edge name -> TransferEdge
        self._build_layout()

    @classmethod
    def from_config(cls, config: ModelConfig) -> "Replica":
        return cls(config.build_network(), base_seed=config.seed)

    # -- layout ----------------------------------------------------------

    def _build_layout(self) -> None:
        net = self.network
        offset = 0
        for name in sorted(names[0] for names in kernel_groups(net).values()):
            kernel = net.edges[name].kernel
            shape = tuple(kernel.array.shape)
            size = int(np.prod(shape))
            self.slots.append(ParamSlot(name, "kernel", offset, size, shape))
            self._kernels[name] = kernel
            offset += size
        for name in sorted(net.edges):
            edge = net.edges[name]
            if hasattr(edge, "bias"):
                self.slots.append(ParamSlot(name, "bias", offset, 1, ()))
                self._transfers[name] = edge
                offset += 1
        self.num_values = offset

    # -- parameter I/O ---------------------------------------------------

    def read_params_into(self, vec: np.ndarray) -> None:
        """Flatten current parameters into *vec* (length
        ``num_values``)."""
        for slot in self.slots:
            view = vec[slot.offset:slot.offset + slot.size]
            if slot.kind == "kernel":
                view[:] = self._kernels[slot.name].array.ravel()
            else:
                view[0] = self._transfers[slot.name].bias

    def write_params_from(self, vec: np.ndarray) -> None:
        """Overwrite the network's parameters from *vec*."""
        for slot in self.slots:
            view = vec[slot.offset:slot.offset + slot.size]
            if slot.kind == "kernel":
                self._kernels[slot.name].array[...] = view.reshape(
                    slot.shape)
            else:
                self._transfers[slot.name].bias = float(view[0])

    # -- gradient computation --------------------------------------------

    def _reseed_dropout(self, round_index: int, sample_index: int) -> None:
        """Give every dropout edge a generator that is a pure function
        of (seed, round, sample, edge) — the mask for global sample
        ``(r, i)`` must not depend on which process draws it or what it
        computed before."""
        dropouts = sorted(
            (name for name, e in self.network.edges.items()
             if hasattr(e, "rate") and hasattr(e, "rng")))
        for k, name in enumerate(dropouts):
            seq = np.random.SeedSequence(
                (self.base_seed, round_index, sample_index, k))
            self.network.edges[name].rng = np.random.default_rng(seq)

    def sample_gradient(self, sampler, round_index: int, sample_index: int,
                        out: np.ndarray) -> float:
        """Compute the whole-model gradient of global sample
        ``(round_index, sample_index)`` into *out*; returns the loss.

        The network's parameters are read, never stepped: the optimizer
        is swapped for a :class:`GradientCollector` around the round.
        """
        net = self.network
        self._reseed_dropout(round_index, sample_index)
        inputs, targets = sampler.sample_at(round_index, sample_index)
        collector = GradientCollector()
        real = net.optimizer
        net.optimizer = collector
        try:
            loss = net.train_step(inputs, targets)
            net.synchronize()  # drain deferred updates into the collector
        finally:
            net.optimizer = real
        for slot in self.slots:
            view = out[slot.offset:slot.offset + slot.size]
            if slot.kind == "kernel":
                state_id = id(self._kernels[slot.name].state)
                g = collector.array_grads.get(state_id)
                if g is None:
                    raise RuntimeError(
                        f"no gradient captured for kernel {slot.name!r}")
                view[:] = g.ravel()
            else:
                state_id = id(self._transfers[slot.name].state)
                if state_id not in collector.scalar_grads:
                    raise RuntimeError(
                        f"no gradient captured for bias {slot.name!r}")
                view[0] = collector.scalar_grads[state_id]
        return float(loss)

    # -- parameter step (coordinator only) -------------------------------

    def apply_update(self, grad_vec: np.ndarray,
                     optimizer: Optional[SGD] = None) -> None:
        """Apply one optimizer step with the (already reduced and
        normalised) gradient vector.

        Per parameter this performs exactly the operation an edge's own
        update task performs — ``SGD.update`` on the kernel array under
        its lock, ``SGD.update_scalar`` on the bias — against the
        edge-owned :class:`UpdateState`, so momentum velocities live
        where checkpointing expects them and a one-slot run is bitwise
        identical to the sequential trainer.
        """
        opt = optimizer if optimizer is not None else self.network.optimizer
        for slot in self.slots:
            view = grad_vec[slot.offset:slot.offset + slot.size]
            if slot.kind == "kernel":
                kernel = self._kernels[slot.name]
                g = view.reshape(slot.shape)
                with kernel.lock:
                    opt.update(kernel.array, g, kernel.state, kernel.eta)
            else:
                edge = self._transfers[slot.name]
                edge.bias = opt.update_scalar(
                    edge.bias, float(view[0]), edge.state, edge.eta)
