"""The conv-backend seam: which algorithm runs a conv edge, and at what
cost (Section IV's per-layer "FFT-based or direct", priced by Table II).

:data:`registry` is the one table of backends.  A backend is one plan
class, defined beside its kernels
(:class:`~repro.tensor.conv_direct.DirectPlan`,
:class:`~repro.tensor.conv_fft.FftConvPlan`): its class members name,
label, build and price it, and the instance an edge builds runs the
passes.  Whatever names, validates, chooses, times or falls back from a
backend does it through this module.  ``docs/algorithms.md`` §8 is the
contract a new entry must meet.
"""

from __future__ import annotations

from typing import Dict, Mapping

import numpy as np

from repro.tensor.conv_direct import DirectPlan
from repro.tensor.conv_fft import FftConvPlan
from repro.utils.shapes import as_shape3, valid_conv_shape

__all__ = ["registry", "FALLBACK", "conv_backend", "choose", "pass_triple"]

#: name -> plan class, in preference order: ties go to the earlier entry.
registry: Dict[str, type] = {
    backend.name: backend for backend in (DirectPlan, FftConvPlan)}

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


def pass_triple(name: str, image_shape, kernel_shape, sparsity=1):
    """A zero-argument callable running one forward + backward + update
    triple under backend *name* — a training round's per-edge work mix,
    spectra memoized within the triple as within a round — on the plan
    an edge at these shapes runs; :mod:`repro.utils.timing` times it."""
    plan = conv_backend(name).build(image_shape, kernel_shape, sparsity)
    rng = np.random.default_rng(0)
    img = rng.standard_normal(as_shape3(image_shape))
    ker = rng.standard_normal(as_shape3(kernel_shape))
    grad = rng.standard_normal(
        valid_conv_shape(image_shape, kernel_shape, sparsity))

    def run():
        spectra: dict = {}

        def memo(kind, compute):
            if kind not in spectra:
                spectra[kind] = compute()
            return spectra[kind]

        plan.forward(img, ker, memo)
        plan.backward(grad, ker, memo)
        plan.update(img, grad, memo)
    return run
