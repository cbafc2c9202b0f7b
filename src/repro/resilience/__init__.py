"""Fault-tolerant training runtime.

The subsystem the paper leaves out: Section VI's scheduler assumes
tasks always complete.  This package supplies what a production
deployment layers on top —

* :mod:`repro.resilience.faults` — deterministic fault injection
  (``REPRO_FAULTS``) for tests and chaos jobs;
* :mod:`repro.resilience.retry` — task retry/backoff policy
  consumed by both execution engines;
* recovery accounting: :func:`recovery_summary` collects every
  recovery action (retries, loss rollbacks, FFT fallbacks,
  engine degradations, injected faults) from the metrics registry so
  silent recovery never masks a systemic problem.

See ``docs/robustness.md`` for the fault model and degradation matrix.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.observability.metrics import MetricsRegistry, get_registry
from repro.resilience.faults import (
    FaultEvent,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    active_plan,
    clear_plan,
    install_plan,
)
from repro.resilience.retry import RetryPolicy

__all__ = [
    "FaultEvent",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "active_plan",
    "clear_plan",
    "install_plan",
    "RetryPolicy",
    "recovery_summary",
    "RECOVERY_METRICS",
]

#: Metric families summed by :func:`recovery_summary`, mapped to the
#: short labels training summaries print.
RECOVERY_METRICS = {
    "engine.tasks.retried": "task retries",
    "train.rollbacks": "loss rollbacks",
    "resilience.fft_fallback": "fft fallbacks",
    "resilience.engine_degraded": "engine degradations",
    "resilience.faults_injected": "injected faults",
}


def recovery_summary(registry: Optional[MetricsRegistry] = None
                     ) -> Dict[str, float]:
    """Total per recovery-metric family (labels summed), keyed by the
    family name; families never touched report 0."""
    reg = registry if registry is not None else get_registry()
    totals = {family: 0.0 for family in RECOVERY_METRICS}
    for name, metric in reg.metrics().items():
        base = name.partition("{")[0]
        if base in totals:
            totals[base] += metric.snapshot()
    return totals
