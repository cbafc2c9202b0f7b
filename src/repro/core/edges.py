"""Runtime edge types: the forward/backward/update transforms.

One class per computation-graph edge kind (``pool`` and ``filter``
share :class:`MaxWindowEdge`).  Each edge exposes:

* ``forward(image, alloc)`` — the FORWARD-TRANSFORM of Algorithm 1,
  returning the contribution to the destination node's forward sum (a
  spatial image or, in FFT mode feeding a spectral-domain node, a half
  spectrum), made with *alloc* (``np.empty``'s signature);
* ``backward(grad)`` — the BACKWARD-TRANSFORM of Algorithm 2;
* ``capture_update()`` — called during the backward task of a trainable
  edge: snapshots the images/spectra the gradient needs (Algorithm 2
  lines 3–4 pass them into CREATE-TASK) and returns the zero-argument
  update closure (Algorithm 3's COMPUTE-GRADIENT + parameter step).
  The closure owns its inputs, so the update can be deferred across the
  round boundary and FORCEd by the next forward pass without hazard.

Convolution edges run on a backend from
:data:`repro.tensor.backends.registry` (``direct`` or ``fft``), all
three passes through :meth:`ConvEdge._run`.  FFT mode pulls
image/gradient/kernel spectra through the network-wide
:class:`repro.tensor.TransformCache`, realising the memoization column
of Table II; kernels may be *shared* between edges
(:class:`SharedKernel`) for scale-invariant multi-scale networks, in
which case the parameter step runs under the kernel's lock.

FFT mode **degrades gracefully** (``docs/robustness.md``): the first
failure on an edge swaps its plan for the direct one for good, at the
single fallback site :meth:`ConvEdge._run`.
"""

from __future__ import annotations

import threading
import warnings
from typing import Callable, Optional

import numpy as np

from repro.core.nodes import RuntimeNode
from repro.core.optimizer import SGD, UpdateState
from repro.graph.computation_graph import EdgeSpec
from repro.observability.metrics import get_registry
from repro.observability.tracing import flight_dump, flight_note
from repro.tensor.backends import FALLBACK, conv_backend
from repro.tensor.fft_cache import TransformCache
from repro.tensor.fourier import forward_transform
from repro.tensor.filtering import (
    scatter_winners,
    window_max,
    window_max_values,
)
from repro.tensor.transfer import get_transfer
from repro.utils.rng import kernel_init

__all__ = [
    "RuntimeEdge",
    "SharedKernel",
    "ConvEdge",
    "TransferEdge",
    "MaxWindowEdge",
    "DropoutEdge",
    "CustomEdge",
    "make_runtime_edge",
]


class SharedKernel:
    """A kernel parameter, possibly shared by several conv edges.

    Sharing is how ZNN expresses scale-invariant convolutions: the same
    weights applied at several sparsities.  Updates from different
    edges may race, so the parameter step runs under ``lock``.
    """

    __slots__ = ("array", "state", "lock", "eta")

    def __init__(self, array: np.ndarray, eta: Optional[float] = None) -> None:
        self.array = np.asarray(array, dtype=np.float64)
        self.state = UpdateState()
        self.lock = threading.Lock()
        self.eta = eta


class RuntimeEdge:
    """Base runtime edge; subclasses implement the three transforms."""

    is_trainable = False
    mode = "n/a"
    #: The conv backend (plan class) configured for this edge and the
    #: plan executing its passes (conv edges only).
    backend = plan = None

    def __init__(self, spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode) -> None:
        self.spec = spec
        self.src = src
        self.dst = dst
        self.fwd_priority = 0
        self.bwd_priority = 0
        #: Last round's update task (None until first backward) — the
        #: task the FORCE protocol targets.
        self.update_task = None
        #: Fixed annotations of this edge's pass spans (the one timing
        #: site is ``Network._pass``): the edge kind, or for a conv
        #: edge the executing backend and its analytic cost.
        self.pass_attrs = {"backend": spec.kind}

    @property
    def name(self) -> str:
        return self.spec.name

    def forward(self, image: np.ndarray, alloc=np.empty) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def capture_update(self, optimizer: SGD) -> Optional[Callable[[], None]]:
        """Snapshot gradient inputs and return the update closure
        (None for non-trainable edges)."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class ConvEdge(RuntimeEdge):
    """Sparse valid convolution with a trainable kernel (Section II)."""

    is_trainable = True

    def __init__(self, spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode,
                 kernel: SharedKernel, mode: str = FALLBACK.name,
                 cache: Optional[TransformCache] = None) -> None:
        super().__init__(spec, src, dst)
        self.backend = conv_backend(mode)
        self.kernel = kernel
        self.mode = mode
        self.cache = cache if cache is not None else TransformCache(enabled=False)
        #: The plan executing the passes: ``backend``'s until a failure
        #: degrades this edge and swaps in ``_fallback_plan`` for good.
        self._use(self.backend.build(src.shape, spec.kernel, spec.sparsity))
        self._fallback_plan = FALLBACK.build(src.shape, spec.kernel,
                                             spec.sparsity)
        #: Which cache entry each memoized spectrum kind lives under.
        self._owner = {"img": src.name, "grad": dst.name, "ker": spec.name}

    def _use(self, plan) -> None:
        """Run the passes on *plan*, and annotate their spans with its
        backend and analytic cost."""
        self.plan = plan
        cost = plan.pass_cost()
        self.pass_attrs = {"backend": plan.name, "flops": cost["flops"],
                           "bytes": cost["bytes"],
                           "image_shape": self.src.shape,
                           "kernel_shape": self.spec.kernel}

    def _degrade(self, exc: BaseException) -> None:
        """Swap in the fallback plan after a failure."""
        self._use(self._fallback_plan)
        get_registry().counter("resilience.fft_fallback").inc()
        flight_note("FFT degradation", edge=self.name,
                    error=f"{type(exc).__name__}: {exc}")
        flight_dump(f"fft-degraded-{self.name}")
        warnings.warn(
            f"FFT convolution failed on edge {self.name!r} "
            f"({type(exc).__name__}: {exc}); falling back to direct "
            "convolution for the rest of the run", RuntimeWarning,
            stacklevel=3)

    @property
    def effective_mode(self) -> str:
        """The mode actually executing: ``mode`` unless degraded."""
        return self.plan.name

    @property
    def fft_ok(self) -> bool:
        """False once a failure degraded this edge to the fallback."""
        return self.effective_mode == self.mode

    def _memo(self, kind: str, compute: Callable[[], np.ndarray]
              ) -> np.ndarray:
        """The backend's spectrum memo: the network-wide transform
        cache, keyed by the node or edge that owns the spectrum."""
        return self.cache.get_or_compute(kind, self._owner[kind], compute)

    def _run(self, op: str, *operands, lift=None, **options):
        """The one dispatch-and-fallback site of all three passes.

        Runs pass *op* on the executing plan.  The first failure
        degrades the edge for good and the pass re-runs on the fallback
        plan.  *lift* is the plan through which the neighbouring node
        sums spectra (forward and backward only; None when it sums
        spatially): a spatial fallback result is lifted to its exact
        spectrum at that plan's transform size — the node's finalize
        (inverse + head crop) undoes the zero padding.
        """
        plan = self.plan
        if plan is not self._fallback_plan:
            try:
                return getattr(plan, op)(*operands, self._memo, **options)
            except Exception as exc:
                self._degrade(exc)
        result = getattr(self._fallback_plan, op)(*operands)
        if lift is not None:
            return forward_transform(result, lift.transform_shape)
        return result

    def forward(self, image: np.ndarray, alloc=np.empty) -> np.ndarray:
        lift = self.dst.forward_plan
        return self._run("forward", image, self.kernel.array, lift=lift,
                         spectral=lift is not None, alloc=alloc)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        lift = self.src.backward_plan
        return self._run("backward", grad, self.kernel.array, lift=lift,
                         spectral=lift is not None)

    def capture_update(self, optimizer: SGD) -> Callable[[], None]:
        kernel = self.kernel
        image = self.src.fwd_image
        grad = self.dst.bwd_image
        captured = self._run("capture_update", image, grad)

        def update() -> None:
            g = self._run("update", image, grad, captured=captured)
            with kernel.lock:
                optimizer.update(kernel.array, g, kernel.state, kernel.eta)
        return update


class TransferEdge(RuntimeEdge):
    """Bias + nonlinearity; the bias is the edge's trainable parameter."""

    is_trainable = True

    def __init__(self, spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode,
                 bias: float = 0.0, eta: Optional[float] = None) -> None:
        super().__init__(spec, src, dst)
        self.fn = get_transfer(spec.transfer)
        self.bias = float(bias)
        self.eta = eta
        self.state = UpdateState()
        self._bias_gradient = 0.0

    def forward(self, image: np.ndarray, alloc=np.empty) -> np.ndarray:
        return self.fn.apply(image, self.bias, alloc)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        # The forward output of this edge is the destination image.
        out = self.fn.backward(grad, self.dst.fwd_image)
        # Bias gradient: sum of the backward image this edge produces
        # (Section III-B "Bias update").
        self._bias_gradient = float(np.sum(out))
        return out

    def capture_update(self, optimizer: SGD) -> Callable[[], None]:
        gradient = self._bias_gradient

        def update() -> None:
            self.bias = optimizer.update_scalar(self.bias, gradient,
                                                self.state, self.eta)
        return update


class MaxWindowEdge(RuntimeEdge):
    """The window maximum with winner routing for the Jacobian, both
    kinds: max-pooling steps by its window (n^3 -> (n/p)^3); sparse
    max-filtering steps by one voxel (resolution-preserving; Fig 2).
    Forward computes values only and keeps its input; the round's first
    backward derives the winners, so inference never computes them."""

    def __init__(self, spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode) -> None:
        super().__init__(spec, src, dst)
        #: (window, step, dilation) of the one kernel.
        self._geometry = ((spec.window, spec.window, 1) if spec.kind == "pool"
                          else (spec.window, 1, spec.sparsity))
        self._input: Optional[np.ndarray] = None
        self._winners: Optional[np.ndarray] = None

    def forward(self, image: np.ndarray, alloc=np.empty) -> np.ndarray:
        self._input, self._winners = image, None
        return window_max_values(image, *self._geometry, alloc)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError(f"backward before forward on {self.name!r}")
        if self._winners is None:
            self._winners = window_max(self._input, *self._geometry)[1]
        return scatter_winners(grad, self._winners, self.src.shape)


class DropoutEdge(RuntimeEdge):
    """Inverted dropout (the ZNN-repository extension [25]).

    At train time voxels are zeroed with probability ``rate`` and the
    survivors scaled by ``1/(1-rate)``; at inference the edge is the
    identity.  The mask is resampled per round and reused by the
    Jacobian.
    """

    def __init__(self, spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode,
                 rng: np.random.Generator) -> None:
        super().__init__(spec, src, dst)
        if not 0.0 <= spec.rate < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {spec.rate}")
        self.rate = spec.rate
        self.rng = rng
        self.training = True
        self._mask: Optional[np.ndarray] = None

    def forward(self, image: np.ndarray, alloc=np.empty) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return image + 0.0
        keep = 1.0 - self.rate
        self._mask = (self.rng.random(image.shape) < keep) / keep
        return image * self._mask

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad + 0.0
        return grad * self._mask


class CustomEdge(RuntimeEdge):
    """A user-registered operation (Section XI extensibility).

    The op's serial forward/backward functions run inside ordinary
    tasks; a per-edge ``state`` dict carries whatever the forward needs
    to hand its Jacobian (masks, winner positions, ...), reset each
    forward call.
    """

    def __init__(self, spec: EdgeSpec, src: RuntimeNode,
                 dst: RuntimeNode) -> None:
        super().__init__(spec, src, dst)
        from repro.core.custom import get_custom_op
        self.op = get_custom_op(spec.op)
        self.state: dict = {}
        self._input: Optional[np.ndarray] = None
        self._output: Optional[np.ndarray] = None

    def forward(self, image: np.ndarray, alloc=np.empty) -> np.ndarray:
        self.state = {}
        self._input = image
        self._output = self.op.forward(image, self.state)
        expected = image.shape[:-3] + self.dst.shape  # a stack stays one
        if self._output.shape != expected:
            raise ValueError(
                f"custom op {self.op.name!r} produced shape "
                f"{self._output.shape}, expected {expected}")
        return self._output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError(f"backward before forward on {self.name!r}")
        return self.op.backward(grad, self._input, self._output, self.state)


def make_runtime_edge(spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode,
                      mode: str = FALLBACK.name,
                      cache: Optional[TransformCache] = None,
                      rng: Optional[np.random.Generator] = None,
                      kernel: Optional[SharedKernel] = None) -> RuntimeEdge:
    """Factory: build the runtime edge for *spec*.

    For conv edges a fresh He-initialised :class:`SharedKernel` is
    created unless *kernel* is provided (weight sharing).
    """
    if spec.kind == "conv":
        if kernel is None:
            if rng is None:
                rng = np.random.default_rng()
            fan_in = int(np.prod(spec.kernel)) * max(len(dst.spec.in_edges), 1)
            kernel = SharedKernel(kernel_init(rng, spec.kernel, fan_in))
        return ConvEdge(spec, src, dst, kernel, mode=mode, cache=cache)
    if spec.kind == "transfer":
        return TransferEdge(spec, src, dst)
    if spec.kind in ("pool", "filter"):
        return MaxWindowEdge(spec, src, dst)
    if spec.kind == "dropout":
        if rng is None:
            rng = np.random.default_rng()
        return DropoutEdge(spec, src, dst, rng)
    if spec.kind == "custom":
        return CustomEdge(spec, src, dst)
    raise ValueError(f"unknown edge kind {spec.kind!r}")
