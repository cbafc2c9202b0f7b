"""The conv-backend seam: which algorithm runs a conv edge, and at what
cost (Section IV's per-layer "FFT-based or direct", priced by Table II).

:data:`registry` is the one table of backends, each defined beside its
kernels (:class:`~repro.tensor.conv_direct.DirectBackend`,
:class:`~repro.tensor.conv_fft.FftBackend`); whatever names, validates,
chooses, times or falls back from a backend does it through this
module.  ``docs/algorithms.md`` "Adding a conv backend" is the contract
a new entry must meet.
"""

from __future__ import annotations

import time
from typing import Dict, Mapping

import numpy as np

from repro.tensor.conv_direct import DirectBackend
from repro.tensor.conv_fft import FftBackend
from repro.utils.shapes import as_shape3, valid_conv_shape

__all__ = ["registry", "FALLBACK", "conv_backend", "choose", "time_passes"]

#: name -> backend, in preference order: ties go to the earlier entry.
registry: Dict[str, object] = {
    backend.name: backend for backend in (DirectBackend(), FftBackend())}

#: The first-registered backend: the default mode, the winner of ties,
#: and what an edge degrades to when its own backend fails.
FALLBACK = next(iter(registry.values()))


def conv_backend(name: str):
    """The backend registered as *name* — the one conv-mode name check."""
    try:
        return registry[name]
    except (KeyError, TypeError):
        raise ValueError(f"conv modes must be {'|'.join(registry)}, "
                         f"got {name!r}") from None


def choose(seconds: Mapping[str, float], tolerance: float = 0.0) -> str:
    """The one choice rule over *seconds* (one entry per registered
    backend): cheapest wins, but a later-registered backend must beat
    the incumbent by more than the fraction *tolerance*, so ties and
    near-ties stay with the earlier one."""
    best = FALLBACK.name
    for name in registry:
        if seconds[name] < seconds[best] * (1.0 - tolerance):
            best = name
    return best


def time_passes(name: str, image_shape, kernel_shape, sparsity=1,
                repeats: int = 3, fast_sizes: bool = False) -> float:
    """Best-of-*repeats* wall time of one forward + backward + update
    triple under backend *name* — a training round's per-edge work mix,
    spectra memoized within the triple as within a round — on the plan
    an edge built with the same *fast_sizes* will run."""
    backend = conv_backend(name)
    plan = backend.plan(image_shape, kernel_shape, sparsity, fast_sizes)
    rng = np.random.default_rng(0)
    img = rng.standard_normal(as_shape3(image_shape))
    ker = rng.standard_normal(as_shape3(kernel_shape))
    grad = rng.standard_normal(
        valid_conv_shape(image_shape, kernel_shape, sparsity))
    best = float("inf")
    for _ in range(repeats):
        spectra: dict = {}

        def memo(kind, compute):
            if kind not in spectra:
                spectra[kind] = compute()
            return spectra[kind]

        t0 = time.perf_counter()
        backend.forward(img, ker, sparsity, plan, memo)
        backend.backward(grad, ker, sparsity, plan, memo)
        backend.update(img, grad, sparsity, plan, memo)
        best = min(best, time.perf_counter() - t0)
    return best
