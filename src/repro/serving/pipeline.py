"""Request pipeline: bounded admission, worker pool, backpressure.

:class:`InferenceServer` is the in-process front end.  What happens to
a request between ``submit()`` and resolution is the shared
:class:`~repro.serving.lifecycle.RequestLifecycle`, whose one bounded
FIFO also holds the admitted requests; this module adds who runs them:

* **Work-conserving worker pool.**  Workers are long-lived
  ``serve:worker`` tasks on a :class:`repro.scheduler.TaskEngine` (the
  paper's execution machinery, so engine metrics cover serving too).
  A free worker pops the oldest request and serves it alone, so
  ``max_queue`` bounds every waiting request and a same-model burst
  spreads over every free worker and twin.

* **Retries.**  An optional :class:`repro.resilience.RetryPolicy`
  re-runs a failed request body (fresh attempt, same warm model) up to
  ``max_retries`` times, with the policy's backoff, before the error is
  surfaced to the client.

Observable on top of the lifecycle's counters: ``serving.queue.depth``
and ``serving.requests.{shed,retried}``; per-request
wait/service/end-to-end latency is the lifecycle's
``slo.{admission_wait,service,e2e}_seconds``.
"""

from __future__ import annotations

import threading
import time
from typing import List, Optional

import numpy as np

from repro.observability.metrics import get_registry
from repro.observability.tracing import get_tracer
from repro.resilience.retry import RetryPolicy
from repro.scheduler.engine import TaskEngine
from repro.serving.lifecycle import PendingRequest, RequestLifecycle
from repro.serving.registry import ModelRegistry
from repro.serving.tiler import DEFAULT_TILE_VOXELS

__all__ = ["InferenceServer"]


class InferenceServer(RequestLifecycle):
    """Bounded-queue dense-inference server.

    Parameters
    ----------
    registry:
        The :class:`~repro.serving.registry.ModelRegistry` holding the
        servable models.
    num_workers:
        Long-lived ``serve:worker`` tasks pulling from the queue.
    max_queue:
        Admission-queue capacity; submissions beyond it are rejected
        with :class:`ServerOverloaded` (never silently dropped).
    tile_voxels:
        Input-tile voxel budget handed to the tiling planner.
    retry_policy:
        Optional per-request :class:`repro.resilience.RetryPolicy`.
    """

    def __init__(self, registry: ModelRegistry, num_workers: int = 2,
                 max_queue: int = 16,
                 tile_voxels: int = DEFAULT_TILE_VOXELS,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        reg = get_registry()
        super().__init__(max_queue, "serving.pipeline",
                         depth_gauge=reg.gauge("serving.queue.depth"),
                         shed_counter=reg.counter("serving.requests.shed"))
        self.registry = registry
        self.num_workers = num_workers
        self.tile_voxels = tile_voxels
        self.retry_policy = retry_policy
        self._inflight = 0  # guarded-by: _cond
        self._engine: Optional[TaskEngine] = None
        #: Test/ops hook: clear to pause dequeuing (admission still
        #: runs, so queue-full behaviour becomes deterministic).
        self.gate = threading.Event()
        self.gate.set()
        self._m_retried = reg.counter("serving.requests.retried")

    def start(self) -> "InferenceServer":
        if self._mark_started():
            self._engine = TaskEngine(num_workers=self.num_workers).start()
            for index in range(self.num_workers):
                self._engine.spawn(self._worker_loop,
                                   name=f"serve:worker-{index}")
        return self

    # -- lifecycle hooks -----------------------------------------------

    def _fov(self, model: str):
        return self.registry.fov(model)

    def _model_names(self) -> List[str]:
        return self.registry.model_names()

    def _pending_locked(self) -> int:
        return len(self._queue) + self._inflight

    def _health_locked(self) -> dict:
        return {"inflight": self._inflight, "workers": self.num_workers}

    def _hint_workers(self) -> int:
        return self.num_workers

    def _shutdown(self) -> None:
        if self._engine is not None:
            self._engine.shutdown()
            self._engine = None

    # -- workers -------------------------------------------------------

    def _take(self) -> Optional[PendingRequest]:
        """Block for the oldest request; None means shut down.

        The timed wait makes the ``gate`` hook effective even for
        workers already parked here when it is cleared (``gate.set``
        does not notify the condition)."""
        with self._cond:
            while ((not self._queue or not self.gate.is_set())
                   and not self._stopped_locked()):
                self._cond.wait(0.02)
            if self._stopped_locked():
                return None
            request = self._pop_locked()
            self._inflight += 1
            return request

    def _worker_loop(self) -> None:
        while True:
            request = self._take()
            if request is None:
                return
            try:
                self._serve_one(request)
            finally:
                with self._cond:
                    self._inflight -= 1
                    self._cond.notify_all()

    def _serve_one(self, request: PendingRequest) -> None:
        now = time.monotonic()
        tracer = get_tracer()
        if tracer.enabled and request.trace_ctx is not None:
            tracer.record("admission.wait",
                          tracer.from_monotonic(request.accepted_at),
                          tracer.from_monotonic(now),
                          category="serving", parent=request.trace_ctx,
                          request=request.id)
        if self._expired(request, now):
            return
        t0 = time.monotonic()
        try:
            with tracer.activate(request.trace_ctx):
                with tracer.span("serve", category="serving",
                                 model=request.model, request=request.id):
                    result = self._run_request(request)
        except Exception as exc:
            self._fail(request, exc)
            return
        self._complete(request, result, t0)

    def _run_request(self, request: PendingRequest) -> np.ndarray:
        """Plan/warm/run with retries; raises the final failure."""
        retries = 0
        while True:
            try:
                return self.registry.run(request.model, request.volume,
                                         self.tile_voxels)
            except Exception as exc:
                policy = self.retry_policy
                if policy is None or not policy.should_retry(exc, retries):
                    raise
                self._m_retried.inc()
                time.sleep(policy.backoff(retries))
                retries += 1
