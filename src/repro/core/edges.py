"""Runtime edge types: the forward/backward/update transforms.

One class per computation-graph edge kind.  Each edge exposes:

* ``forward(image)`` — the FORWARD-TRANSFORM of Algorithm 1, returning
  the contribution to the destination node's forward sum (a spatial
  image or, in FFT mode feeding a spectral-domain node, a half
  spectrum);
* ``backward(grad)`` — the BACKWARD-TRANSFORM of Algorithm 2;
* ``capture_update()`` — called during the backward task of a trainable
  edge: snapshots the images/spectra the gradient needs (Algorithm 2
  lines 3–4 pass them into CREATE-TASK) and returns the zero-argument
  update closure (Algorithm 3's COMPUTE-GRADIENT + parameter step).
  The closure owns its inputs, so the update can be deferred across the
  round boundary and FORCEd by the next forward pass without hazard.

Convolution edges run in ``direct`` or ``fft`` mode.  FFT mode pulls
image/gradient/kernel spectra through the network-wide
:class:`repro.tensor.TransformCache`, realising the memoization column
of Table II; kernels may be *shared* between edges
(:class:`SharedKernel`) for scale-invariant multi-scale networks, in
which case the parameter step runs under the kernel's lock.

FFT mode **degrades gracefully** (see ``docs/robustness.md``): the
first FFT failure on an edge permanently flips that edge to direct
convolution (``resilience.fft_fallback`` counter, a warning, and the
edge's ``on_degrade`` callback so the network can record the new mode
in its autotune state).  When the neighbouring node sums contributions
in the spectral domain, the fallback result is wrapped with a forward
transform — exact by linearity, since the node's finaliser is inverse
transform + head crop.
"""

from __future__ import annotations

import threading
import time
import warnings
from typing import Callable, Optional

import numpy as np

from repro.core.nodes import RuntimeNode
from repro.core.optimizer import SGD, UpdateState
from repro.graph.computation_graph import EdgeSpec
from repro.tensor.conv_direct import (
    conv_backward_input,
    conv_kernel_gradient,
    correlate_valid,
    direct_pass_cost,
)
from repro.observability.metrics import get_registry
from repro.observability.profile import get_profiler
from repro.observability.tracing import flight_dump, flight_note
from repro.tensor.conv_fft import FftConvPlan
from repro.tensor.fft_cache import TransformCache
from repro.tensor.fourier import forward_transform
from repro.tensor.filtering import max_filter_backward, max_filter_forward
from repro.tensor.pooling import max_pool_backward, max_pool_forward
from repro.tensor.transfer import get_transfer
from repro.utils.rng import kernel_init

__all__ = [
    "RuntimeEdge",
    "SharedKernel",
    "ConvEdge",
    "TransferEdge",
    "MaxPoolEdge",
    "MaxFilterEdge",
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
    plan: Optional[FftConvPlan] = None

    def __init__(self, spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode) -> None:
        self.spec = spec
        self.src = src
        self.dst = dst
        self.fwd_priority = 0
        self.bwd_priority = 0
        #: Last round's update task (None until first backward) — the
        #: task the FORCE protocol targets.
        self.update_task = None

    @property
    def name(self) -> str:
        return self.spec.name

    def forward(self, image: np.ndarray) -> np.ndarray:
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
                 kernel: SharedKernel, mode: str = "direct",
                 cache: Optional[TransformCache] = None,
                 fast_sizes: bool = False) -> None:
        super().__init__(spec, src, dst)
        if mode not in ("direct", "fft"):
            raise ValueError(f"conv mode must be direct|fft, got {mode!r}")
        self.kernel = kernel
        self.mode = mode
        self.sparsity = spec.sparsity
        self.cache = cache if cache is not None else TransformCache(enabled=False)
        self.plan = FftConvPlan(src.shape, spec.kernel, spec.sparsity,
                                fast_sizes=fast_sizes) \
            if mode == "fft" else None
        #: False once an FFT failure degraded this edge to direct
        #: convolution (the plan is kept: neighbouring spectral-domain
        #: nodes still finalize through it).
        self.fft_ok = True
        #: Called with this edge on first degradation (Network records
        #: the effective mode in its autotune state).
        self.on_degrade: Optional[Callable[["ConvEdge"], None]] = None

    def _degrade(self, exc: BaseException) -> None:
        """Flip this edge to direct convolution after an FFT failure."""
        self.fft_ok = False
        get_registry().counter("resilience.fft_fallback").inc()
        flight_note("FFT degradation", edge=self.name,
                    error=f"{type(exc).__name__}: {exc}")
        flight_dump(f"fft-degraded-{self.name}")
        warnings.warn(
            f"FFT convolution failed on edge {self.name!r} "
            f"({type(exc).__name__}: {exc}); falling back to direct "
            "convolution for the rest of the run", RuntimeWarning,
            stacklevel=3)
        if self.on_degrade is not None:
            self.on_degrade(self)

    @property
    def effective_mode(self) -> str:
        """The mode actually executing: ``mode`` unless degraded."""
        return "direct" if self.mode == "direct" or not self.fft_ok \
            else "fft"

    # -- spectra (FFT mode) -------------------------------------------------

    def _image_spectrum(self, image: np.ndarray) -> np.ndarray:
        return self.cache.get_or_compute(
            "img", self.src.name, lambda: self.plan.image_spectrum(image))

    def _grad_spectrum(self, grad: np.ndarray) -> np.ndarray:
        return self.cache.get_or_compute(
            "grad", self.dst.name, lambda: self.plan.grad_spectrum(grad))

    def _kernel_spectrum(self) -> np.ndarray:
        return self.cache.get_or_compute(
            "ker", self.name, lambda: self.plan.kernel_spectrum(self.kernel.array))

    # -- profiled entry points ------------------------------------------------
    # Thin timing brackets around the real transforms; the disabled
    # profiler costs one attribute read (docs/observability.md
    # "Cost model").

    def forward(self, image: np.ndarray) -> np.ndarray:
        profiler = get_profiler()
        if not profiler.enabled:
            return self._forward(image)
        t0 = time.monotonic()
        try:
            return self._forward(image)
        finally:
            self._profile(profiler, "fwd", t0)

    def backward(self, grad: np.ndarray) -> np.ndarray:
        profiler = get_profiler()
        if not profiler.enabled:
            return self._backward(grad)
        t0 = time.monotonic()
        try:
            return self._backward(grad)
        finally:
            self._profile(profiler, "bwd", t0)

    def capture_update(self, optimizer: SGD) -> Callable[[], None]:
        update = self._capture_update(optimizer)

        def profiled_update() -> None:
            profiler = get_profiler()
            if not profiler.enabled:
                update()
                return
            t0 = time.monotonic()
            try:
                update()
            finally:
                self._profile(profiler, "upd", t0)
        return profiled_update

    def _profile(self, profiler, op: str, t0: float) -> None:
        """Record the pass started at *t0* with the analytic cost of
        the backend that actually ran it (this edge's own FFT plan —
        padded transform size included — or the direct formula)."""
        seconds = time.monotonic() - t0
        mode = self.effective_mode
        cost = (self.plan.pass_cost() if mode == "fft" else
                direct_pass_cost(self.src.shape, self.spec.kernel,
                                 self.sparsity))
        profiler.record(self.name, mode, op, seconds,
                        flops=cost["flops"], bytes_moved=cost["bytes"],
                        image_shape=self.src.shape,
                        kernel_shape=self.spec.kernel)

    # -- transforms -----------------------------------------------------------

    def _forward(self, image: np.ndarray) -> np.ndarray:
        if self.mode == "fft" and self.fft_ok:
            try:
                product = self.plan.forward_product(
                    self._image_spectrum(image), self._kernel_spectrum())
                if self.dst.forward_domain == "spectral":
                    return product
                return self.plan.finalize_forward(product)
            except Exception as exc:
                self._degrade(exc)
        result = correlate_valid(image, self.kernel.array, self.sparsity)
        if self.mode == "fft" and self.dst.forward_domain == "spectral":
            # The node sums spectra; contribute the exact spectrum of
            # the direct result (finalize = inverse + head crop undoes
            # the zero padding).
            return forward_transform(result, self.plan.transform_shape)
        return result

    def _backward(self, grad: np.ndarray) -> np.ndarray:
        if self.mode == "fft" and self.fft_ok:
            try:
                product = self.plan.backward_product(
                    self._grad_spectrum(grad), self._kernel_spectrum())
                if self.src.backward_domain == "spectral":
                    return product
                return self.plan.finalize_backward(product)
            except Exception as exc:
                self._degrade(exc)
        result = conv_backward_input(grad, self.kernel.array, self.sparsity)
        if self.mode == "fft" and self.src.backward_domain == "spectral":
            return forward_transform(result, self.plan.transform_shape)
        return result

    def _capture_update(self, optimizer: SGD) -> Callable[[], None]:
        kernel = self.kernel
        image = self.src.fwd_image
        grad = self.dst.bwd_image
        sparsity = self.sparsity
        if self.mode == "fft" and self.fft_ok:
            try:
                # Memoized spectra: both exist in this round's cache
                # (the forward pass computed FI, this backward pass
                # computed FdO).
                plan = self.plan
                image_spec = self._image_spectrum(image)
                grad_spec = self._grad_spectrum(grad)

                def update() -> None:
                    try:
                        g = plan.finalize_update(
                            plan.update_product(image_spec, grad_spec))
                    except Exception as exc:
                        self._degrade(exc)
                        g = conv_kernel_gradient(image, grad, sparsity)
                    with kernel.lock:
                        optimizer.update(kernel.array, g, kernel.state,
                                         kernel.eta)
                return update
            except Exception as exc:
                self._degrade(exc)

        def update() -> None:
            g = conv_kernel_gradient(image, grad, sparsity)
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

    def forward(self, image: np.ndarray) -> np.ndarray:
        return self.fn.apply(image, self.bias)

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


class MaxPoolEdge(RuntimeEdge):
    """Max-pooling: n^3 -> (n/p)^3 with winner routing for the Jacobian."""

    def __init__(self, spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode) -> None:
        super().__init__(spec, src, dst)
        self.window = spec.window
        self._argmax: Optional[np.ndarray] = None

    def forward(self, image: np.ndarray) -> np.ndarray:
        pooled, self._argmax = max_pool_forward(image, self.window)
        return pooled

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._argmax is None:
            raise RuntimeError(f"backward before forward on {self.name!r}")
        return max_pool_backward(grad, self._argmax, self.window)


class MaxFilterEdge(RuntimeEdge):
    """Sparse max-filtering (resolution-preserving; Fig 2)."""

    def __init__(self, spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode) -> None:
        super().__init__(spec, src, dst)
        self.window = spec.window
        self.sparsity = spec.sparsity
        self._argmax: Optional[np.ndarray] = None

    def forward(self, image: np.ndarray) -> np.ndarray:
        filtered, self._argmax = max_filter_forward(image, self.window,
                                                    self.sparsity)
        return filtered

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._argmax is None:
            raise RuntimeError(f"backward before forward on {self.name!r}")
        return max_filter_backward(grad, self._argmax, self.src.shape)


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

    def forward(self, image: np.ndarray) -> np.ndarray:
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

    def forward(self, image: np.ndarray) -> np.ndarray:
        self.state = {}
        self._input = image
        self._output = self.op.forward(image, self.state)
        if self._output.shape != self.dst.shape:
            raise ValueError(
                f"custom op {self.op.name!r} produced shape "
                f"{self._output.shape}, expected {self.dst.shape}")
        return self._output

    def backward(self, grad: np.ndarray) -> np.ndarray:
        if self._input is None:
            raise RuntimeError(f"backward before forward on {self.name!r}")
        return self.op.backward(grad, self._input, self._output, self.state)


def make_runtime_edge(spec: EdgeSpec, src: RuntimeNode, dst: RuntimeNode,
                      mode: str = "direct",
                      cache: Optional[TransformCache] = None,
                      rng: Optional[np.random.Generator] = None,
                      kernel: Optional[SharedKernel] = None,
                      fast_sizes: bool = False) -> RuntimeEdge:
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
        return ConvEdge(spec, src, dst, kernel, mode=mode, cache=cache,
                        fast_sizes=fast_sizes)
    if spec.kind == "transfer":
        return TransferEdge(spec, src, dst)
    if spec.kind == "pool":
        return MaxPoolEdge(spec, src, dst)
    if spec.kind == "filter":
        return MaxFilterEdge(spec, src, dst)
    if spec.kind == "dropout":
        if rng is None:
            rng = np.random.default_rng()
        return DropoutEdge(spec, src, dst, rng)
    if spec.kind == "custom":
        return CustomEdge(spec, src, dst)
    raise ValueError(f"unknown edge kind {spec.kind!r}")
