"""The observability catalog: every metric name this repo may emit.

``repro lint``'s ``metrics-name`` rule checks each string-literal name
passed to ``registry.counter/gauge/histogram`` against this set, so a
new instrumentation site cannot ship without being catalogued here —
and the table in ``docs/observability.md`` (which mirrors this module)
cannot silently rot.

Names are the *unlabelled* family names; labelled variants
(``engine.tasks{family=fwd}``) share their family's entry.
"""

from __future__ import annotations

from typing import FrozenSet

__all__ = ["METRIC_NAMES"]

METRIC_NAMES: FrozenSet[str] = frozenset({
    # sync/priority_queue.py (§VII-A)
    "queue.push",
    "queue.pop",
    "queue.skipped",
    "queue.depth",
    "queue.wait_seconds",
    # scheduler/engine.py, scheduler/serial.py (§VI)
    "engine.tasks",
    "engine.tasks.retried",
    "engine.failed",
    "engine.busy_seconds",
    "engine.idle_seconds",
    # tensor/fft_cache.py (§IV memoization)
    "fft_cache.hit",
    "fft_cache.miss",
    "fft_cache.evicted",
    "fft_cache.bytes",
    "fft_cache.entries",
    # memory/pools.py (§VII-C)
    "pool.alloc",
    "pool.reuse",
    "pool.free",
    "pool.held_bytes",
    "pool.outstanding",
    # core/training.py
    "train.rounds",
    "train.loss",
    "train.seconds_per_update",
    "train.rollbacks",
    # resilience (docs/robustness.md)
    "resilience.faults_injected",
    "resilience.fft_fallback",
    "resilience.engine_degraded",
    # serving/pipeline.py + serving/registry.py (docs/serving.md)
    "serving.queue.depth",
    "serving.requests.accepted",
    "serving.requests.rejected",
    "serving.requests.completed",
    "serving.requests.failed",
    "serving.requests.deadline_missed",
    "serving.requests.retried",
    "serving.requests.shed",
    "serving.requests.specialized",
    "serving.model_cache.hit",
    "serving.model_cache.miss",
    "serving.model_cache.evicted",
    "serving.model_cache.entries",
    "serving.service.ewma_seconds",
    # serving/fleet.py + serving/supervisor.py (docs/serving.md
    # "Serving fleet")
    "fleet.workers",
    "fleet.workers.healthy",
    "fleet.workers.quarantined",
    "fleet.worker_deaths",
    "fleet.restarts",
    "fleet.heartbeats.missed",
    "fleet.queue.depth",
    "fleet.requests.dispatched",
    "fleet.requests.requeued",
    "fleet.requests.shed",
    "fleet.requests.failover",
    "fleet.worker.served",
    "fleet.worker.inflight",
    "fleet.scale_ups",
    "fleet.scale_downs",
    # loadgen/autoscale.py (docs/serving.md "Capacity planning")
    "autoscale.decisions",
    "autoscale.workers.target",
    # analysis/runtime.py (docs/static_analysis.md)
    "analysis.lock_order_violations",
    # analysis/determinism.py + runtime.py sanitizer
    # (docs/static_analysis.md "Determinism checker")
    "analysis.determinism.findings",
    "analysis.determinism.suppressed",
    "analysis.determinism.probe_runs",
    "analysis.determinism.stages",
    "analysis.determinism.divergences",
    # parallel/trainer.py (docs/parallel.md)
    "parallel.workers",
    "parallel.rounds",
    "parallel.barrier_wait_seconds",
    "parallel.worker_deaths",
    "parallel.reassigned_samples",
    # observability/tracing.py (docs/observability.md "Spans")
    "tracing.spans",
    "tracing.dropped",
    "flight.dumps",
    # observability/slo.py (docs/observability.md "SLO accounting")
    "slo.admission_wait_seconds",
    "slo.service_seconds",
    "slo.e2e_seconds",
    "slo.requests.ok",
    "slo.requests.violated",
})
