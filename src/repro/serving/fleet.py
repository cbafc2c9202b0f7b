"""Fault-tolerant serving fleet: router + supervised workers.

The ZNNi observation (PAPERS.md) is that inference throughput on one
host comes from running many workers side by side.  This module is the
robustness half of that design: a :class:`FleetServer` router in the
front-end process distributes requests over N supervised
:func:`~repro.serving.supervisor.serve_worker_main` processes and
keeps serving through worker crashes, hangs, restart storms and
graceful drains.

Dispatch
--------
Admitted requests wait in the lifecycle's one FIFO.  Each active
worker has a ``fleet-dispatch-<id>`` thread that pops the oldest
request whenever its worker is healthy and has room in its in-flight
window (``inflight_per_worker``) — the paper's rule that a free worker
takes the next ready task, so no worker idles while a request waits.
Every worker registers every model, so any worker can serve any
request; a same-model burst spreads over the whole fleet.

Failover
--------
A request dispatched to a worker that dies mid-flight goes back to the
head of the queue, against a bounded attempt budget and its own
deadline, and whichever healthy worker is free next takes it — the
crash is absorbed, not surfaced.  Inference here is idempotent *and
bitwise deterministic* (fixed tap-order direct conv, deterministic
sums), so a retried request returns byte-identical output; the chaos
tests assert exactly that.

Data path
---------
Volumes cross the process boundary through
:class:`~repro.memory.shared_pool.SharedMemoryPool` blocks, never
pickled: the router copies the input volume into a pooled block,
the worker writes the dense output into a second block, and the router
copies it out before recycling both.  Blocks belonging to a dead
worker are reclaimed only after the supervisor has *joined* the
process — a killed-but-not-yet-dead worker can never scribble into a
recycled block.

Request lifecycle
-----------------
Validation, tiered admission, deadlines, ``retry_after`` hints, drain
and accounting are the shared
:class:`~repro.serving.lifecycle.RequestLifecycle` — the router only
decides *who* runs an admitted request.  With *no* healthy workers
(all quarantined mid restart-storm) requests stay queued until a
worker returns or the janitor expires their deadlines — accepted
requests are never silently dropped, every one resolves.
"""

from __future__ import annotations

import threading
import time
from typing import Dict, Iterable, List, Optional, Set

import numpy as np

from repro.memory.shared_pool import SharedMemoryPool
from repro.observability.metrics import get_registry
from repro.observability.tracing import flight_note, get_tracer
from repro.serving.lifecycle import (
    PRIORITY_NORMAL,
    DeadlineExceeded,
    PendingRequest,
    RequestLifecycle,
    ServerClosed,
    ServingError,
)
from repro.serving.registry import ModelSpec
from repro.serving.supervisor import (
    Supervisor,
    SupervisorConfig,
    WorkerConfig,
    error_from_kind,
)
from repro.serving.tiler import DEFAULT_TILE_VOXELS

__all__ = ["FleetRequest", "FleetServer"]


class FleetRequest(PendingRequest):
    """A :class:`PendingRequest` with a failover budget."""

    def __init__(self, model: str, volume: np.ndarray,
                 deadline: Optional[float],
                 priority: int = PRIORITY_NORMAL) -> None:
        super().__init__(model, volume, deadline, priority=priority)
        #: Dispatch attempts consumed (capped by the fleet's budget).
        self.attempts = 0
        self.dispatched_at: Optional[float] = None
        self.worker: Optional[int] = None


class FleetServer(RequestLifecycle):
    """Router over a supervised fleet of serving worker processes.

    Shares :class:`~repro.serving.lifecycle.RequestLifecycle` with
    :class:`~repro.serving.pipeline.InferenceServer` (``submit`` /
    ``infer`` / ``health`` / ``stop`` / ``begin_drain`` /
    ``wait_drained``), so the HTTP front end and clients work
    unchanged.

    Parameters
    ----------
    specs:
        The servable :class:`~repro.serving.registry.ModelSpec` list;
        every worker registers (and, given *prewarm_shape*, prewarms)
        all of them, so any worker can serve any model on failover.
    num_workers:
        Worker *processes* (each running requests on
        *threads_per_worker* threads).
    max_queue:
        Fleet-wide admission capacity (queued, not in-flight).
    inflight_per_worker:
        Dispatch window per worker: a worker takes the next queued
        request only while fewer than this many are in flight on it.
        It is the only bound on a worker's load: admission happens
        once, here, and a worker runs whatever it is sent.
    max_attempts:
        Total dispatch attempts per request (first try + failovers).
    worker_faults:
        Optional ``REPRO_FAULTS``-style plan string installed *inside
        every worker process* (chaos testing; see
        :mod:`repro.resilience.faults`).
    plans:
        Optional iterable of
        :class:`~repro.serving.specialize.SpecializationPlan` — ZNNi
        per-layer direct/FFT plans applied in every worker (and every
        respawned worker) for the models they target.
    """

    role = "fleet"
    request_class = FleetRequest

    def __init__(self, specs: Iterable[ModelSpec], num_workers: int = 3,
                 max_queue: int = 32,
                 threads_per_worker: int = 1,
                 inflight_per_worker: int = 4,
                 tile_voxels: int = DEFAULT_TILE_VOXELS,
                 max_models: int = 4,
                 prewarm_shape=None,
                 max_attempts: int = 3,
                 worker_faults: Optional[str] = None,
                 supervisor_config: Optional[SupervisorConfig] = None,
                 pool_name: str = "fleet",
                 plans=None) -> None:
        if num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {num_workers}")
        if max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {max_attempts}")
        self.specs = {spec.name: spec for spec in specs}
        if not self.specs:
            raise ValueError("fleet needs at least one model spec")
        #: Per-model ZNNi specialization plans, shipped to every worker
        #: (docs/serving.md "Per-layer specialization").  Keyed by
        #: model name; a plan for an unregistered model is a config
        #: error surfaced here, not inside a worker process.
        self.plans = {plan.model: plan for plan in (plans or ())}
        for name in self.plans:
            if name not in self.specs:
                raise ValueError(
                    f"specialization plan targets unknown model "
                    f"{name!r}")
        #: Field of view per model, resolved once — the router sizes
        #: output blocks without ever building a network.
        self._fovs = {name: spec.fov
                      for name, spec in self.specs.items()}
        reg = get_registry()
        super().__init__(max_queue, "serving.fleet",
                         depth_gauge=reg.gauge("fleet.queue.depth"),
                         shed_counter=reg.counter("fleet.requests.shed"))
        self.num_workers = num_workers
        self.inflight_per_worker = inflight_per_worker
        self.max_attempts = max_attempts
        self.tile_voxels = tile_voxels
        #: Worker ids currently part of the fleet (scale-up adds,
        #: scale-down removes; distinct from _healthy, which tracks
        #: liveness of active workers).
        self._active: Set[int] = set()  # guarded-by: _cond
        self._worker_config = WorkerConfig(
            specs=tuple(self.specs.values()),
            plans=tuple(self.plans[name] for name in sorted(self.plans)),
            threads=threads_per_worker, tile_voxels=tile_voxels,
            max_models=max_models,
            prewarm_shape=(tuple(prewarm_shape)
                           if prewarm_shape is not None else None),
            faults=worker_faults)
        self.supervisor = Supervisor(
            self._worker_config, num_workers,
            config=supervisor_config,
            on_message=self._on_message,
            on_worker_up=self._on_worker_up,
            on_worker_down=self._on_worker_down)
        self._pool: Optional[SharedMemoryPool] = None
        self._pool_name = pool_name
        self._healthy: Set[int] = set()  # guarded-by: _cond
        self._inflight: Dict[int, Dict[int, FleetRequest]] = {}  # guarded-by: _cond
        #: rid -> (in_block, out_block, out_shape) while dispatched.
        self._blocks: Dict[int, tuple] = {}  # guarded-by: _cond
        self._threads: List[threading.Thread] = []
        self._worker_stats: Dict[int, Dict[str, int]] = {}  # guarded-by: _cond
        self._m_dispatched = reg.counter("fleet.requests.dispatched")
        self._m_requeued = reg.counter("fleet.requests.requeued")
        self._m_failover = reg.counter("fleet.requests.failover")
        self._m_worker_served: Dict[int, object] = {}
        self._m_worker_inflight: Dict[int, object] = {}
        self._m_scale_ups = reg.counter("fleet.scale_ups")
        self._m_scale_downs = reg.counter("fleet.scale_downs")
        for wid in range(num_workers):
            self._add_worker_locked(wid)

    # -- lifecycle -----------------------------------------------------

    def start(self, ready_timeout: float = 120.0) -> "FleetServer":
        if not self._mark_started():
            return self
        self._pool = SharedMemoryPool(self._pool_name)
        self.supervisor.start()
        for wid in range(self.num_workers):
            self._spawn_thread(self._dispatch_loop,
                               f"fleet-dispatch-{wid}", wid)
        self._spawn_thread(self._janitor_loop, "fleet-janitor")
        if not self.supervisor.wait_ready(timeout=ready_timeout,
                                          min_workers=1):
            self.stop()
            raise ServingError(
                f"no fleet worker became ready within {ready_timeout}s")
        return self

    # -- lifecycle hooks -----------------------------------------------

    def _fov(self, model: str):
        try:
            return self._fovs[model]
        except KeyError:
            raise KeyError(
                f"unknown model {model!r}; registered: "
                f"{sorted(self.specs)}") from None

    def _model_names(self) -> List[str]:
        return sorted(self.specs)

    def _pending_locked(self) -> int:
        return (len(self._queue)
                + sum(len(f) for f in self._inflight.values()))

    def _take_leftovers_locked(self) -> List[FleetRequest]:
        leftovers: List[FleetRequest] = []
        for wid, flights in self._inflight.items():
            leftovers.extend(flights.values())
            flights.clear()
            self._m_worker_inflight[wid].set(0)
        return leftovers

    def _hint_workers(self) -> int:
        return len(self.supervisor.healthy_ids())

    def _shutdown(self) -> None:
        self.supervisor.stop()
        # Workers are confirmed dead: reclaiming and unlinking every
        # shared segment is now safe.
        with self._cond:
            entries = list(self._blocks.values())
            self._blocks.clear()
        for entry in entries:
            self._release(entry)
        if self._pool is not None:
            self._pool.close()
        for thread in self._threads:
            thread.join(timeout=5.0)
        self._threads = []

    def _health_locked(self) -> dict:
        return {
            "active_workers": sorted(self._active),
            "healthy": len(self._healthy),
            "workers": {
                wid: {"inflight": len(self._inflight[wid]),
                      **self._worker_stats[wid]}
                for wid in self._inflight},
        }

    def health(self) -> dict:
        """Fleet health: the lifecycle document plus per-worker
        supervisor state (restart counts, quarantine reasons,
        in-flight and served counts).  ``"unavailable"`` means running
        with no healthy worker."""
        doc = super().health()
        if not doc.pop("healthy") and doc["status"] == "ok":
            doc["status"] = "unavailable"
        router_view = doc["workers"]
        doc["workers"] = self.supervisor.status()
        for wid_str, info in doc["workers"].items():
            info.update(router_view.get(int(wid_str), {}))
        return doc

    # -- scaling -------------------------------------------------------

    @property
    def active_workers(self) -> int:
        """Workers currently part of the fleet (healthy or not)."""
        with self._cond:
            return len(self._active)

    def active_worker_ids(self) -> List[int]:
        with self._cond:
            return sorted(self._active)

    @property
    def total_inflight(self) -> int:
        with self._cond:
            return sum(len(f) for f in self._inflight.values())

    def scale_to(self, target: int, drain_timeout: float = 15.0,
                 ready_timeout: Optional[float] = None) -> List[int]:
        """Scale the fleet to *target* active workers.

        Scale-up allocates fresh worker ids (never reusing retired
        ones), wires their windows/metrics, and spawns the processes;
        they take traffic once prewarmed (ready).  Scale-down retires
        the highest-id workers one at a time: the victim stops taking
        requests immediately (its dispatch thread exits), its
        in-flight requests get *drain_timeout* seconds to finish, then
        the process is gracefully retired via
        :meth:`~repro.serving.supervisor.Supervisor.retire_worker`.

        With *ready_timeout* the call additionally waits that many
        seconds for newly added workers to report ready.  Returns the
        active worker ids after the change.
        """
        if target < 1:
            raise ValueError(
                f"target must be >= 1, got {target}")
        added: List[int] = []
        while True:
            with self._cond:
                if not self._admitting_locked():
                    raise ServingError(
                        "fleet is not running; cannot scale")
                current = len(self._active)
            if current < target:
                added.append(self._scale_up_one())
            elif current > target:
                self._scale_down_one(drain_timeout)
            else:
                break
        if ready_timeout is not None and added:
            deadline = time.monotonic() + ready_timeout
            for wid in added:
                while (not self.supervisor.is_healthy(wid)
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
        return self.active_worker_ids()

    def _scale_up_one(self) -> int:
        wid = self.supervisor.add_worker()
        with self._cond:
            self._add_worker_locked(wid)
        self._spawn_thread(self._dispatch_loop, f"fleet-dispatch-{wid}", wid)
        self.supervisor.spawn_worker(wid)
        self._m_scale_ups.inc()
        flight_note("fleet scaled up", worker=wid)
        return wid

    def _scale_down_one(self, drain_timeout: float) -> int:
        with self._cond:
            if len(self._active) <= 1:
                raise ValueError(
                    "cannot scale the fleet below 1 worker")
            victim = max(self._active)
            self._active.discard(victim)
            self._healthy.discard(victim)
            self._cond.notify_all()
        flight_note("fleet scaling down", worker=victim)
        deadline = time.monotonic() + drain_timeout
        with self._cond:
            while (self._inflight[victim]
                   and not self._stopped_locked()
                   and time.monotonic() < deadline):
                self._cond.wait(0.02)
        self.supervisor.retire_worker(victim)
        # Leftovers mean the drain timed out (or the worker died while
        # draining): requeue through the normal failover machinery.
        with self._cond:
            leftovers = list(self._inflight[victim].values())
            self._inflight[victim].clear()
            self._m_worker_inflight[victim].set(0)
            entries = [self._blocks.pop(r.id, None)
                       for r in leftovers]
        for entry in entries:
            self._release(entry)
        for request in leftovers:
            self._retry_or_fail(request, ServingError(
                f"worker {victim} retired before request "
                f"{request.id} resolved"))
        self._m_scale_downs.inc()
        flight_note("fleet scaled down", worker=victim,
                    leftovers=len(leftovers))
        return victim

    # -- internals -----------------------------------------------------

    def _add_worker_locked(self, wid: int) -> None:
        """Wire worker *wid*'s router-side window and metrics."""
        reg = get_registry()
        self._inflight[wid] = {}
        self._worker_stats[wid] = {"served": 0, "deadline_missed": 0}
        self._m_worker_served[wid] = reg.counter(
            "fleet.worker.served", worker=str(wid))
        self._m_worker_inflight[wid] = reg.gauge(
            "fleet.worker.inflight", worker=str(wid))
        self._active.add(wid)

    def _spawn_thread(self, target, name: str, *args) -> None:
        thread = threading.Thread(target=target, args=args, name=name,
                                  daemon=True)
        thread.start()
        self._threads.append(thread)

    # -- dispatch ------------------------------------------------------

    def _dispatch_loop(self, wid: int) -> None:
        """Feed worker *wid* the oldest queued request whenever it is
        healthy with room in its window; return once the fleet stops
        or the worker is retired."""
        while True:
            with self._cond:
                while True:
                    if self._stopped_locked() or wid not in self._active:
                        return
                    if (wid in self._healthy and self._queue
                            and len(self._inflight[wid])
                            < self.inflight_per_worker):
                        request = self._pop_locked()
                        break
                    self._cond.wait(0.05)
            self._dispatch(wid, request)

    def _dispatch(self, wid: int, request: FleetRequest) -> None:
        now = time.monotonic()
        if self._expired(request, now):
            return
        assert self._pool is not None
        out_shape = tuple(v - f + 1 for v, f in
                          zip(request.volume.shape, request.fov))
        in_block, in_array = self._pool.allocate_array(
            request.volume.shape)
        in_array[...] = request.volume
        out_block = self._pool.allocate(
            max(1, int(np.prod(out_shape)) * 8))
        remaining = (None if request.deadline is None
                     else request.deadline - now)
        request.attempts += 1
        request.dispatched_at = now
        request.worker = wid
        with self._cond:
            self._inflight[wid][request.id] = request
            self._blocks[request.id] = (in_block, out_block, out_shape)
            self._m_worker_inflight[wid].set(len(self._inflight[wid]))
        sent = self.supervisor.send(wid, (
            "request", request.id, request.model,
            in_block.handle, request.volume.shape,
            out_block.handle, out_shape, remaining))
        if not sent:
            # The worker died between queue pop and send.  Stop feeding
            # it until the supervisor reports it up again, or this loop
            # would spend every queued request's attempts on a dead
            # pipe.  Its death callback may have already popped the
            # in-flight entry and requeued the request — only the side
            # that wins the pop requeues, so the request is never
            # dispatched twice.
            with self._cond:
                self._healthy.discard(wid)
            owned, entry = self._pop_flight(wid, request.id)
            self._release(entry)
            if owned is not None:
                self._retry_or_fail(request, ServingError(
                    f"worker {wid} unavailable at dispatch"))
            return
        self._m_dispatched.inc()

    # -- completion (supervisor callbacks) -----------------------------

    def _on_message(self, wid: int, message: tuple) -> None:
        if message[0] == "result":
            self._on_result(wid, message[1])
        elif message[0] == "error":
            self._on_error(wid, *message[1:])

    def _pop_flight(self, wid: int, rid: int):
        with self._cond:
            request = self._inflight[wid].pop(rid, None)
            entry = self._blocks.pop(rid, None)
            self._m_worker_inflight[wid].set(len(self._inflight[wid]))
            self._cond.notify_all()
        return request, entry

    def _on_result(self, wid: int, rid: int) -> None:
        request, entry = self._pop_flight(wid, rid)
        if request is None or entry is None:
            # Stale completion (the request was already requeued or
            # failed); just recycle any blocks still attributed to it.
            self._release(entry)
            return
        _, out_block, out_shape = entry
        result = np.array(out_block.as_array(out_shape), copy=True)
        self._release(entry)
        with self._cond:
            self._worker_stats[wid]["served"] += 1
        self._m_worker_served[wid].inc()
        self._record_dispatch_span(request)
        self._complete(request, result, request.dispatched_at)

    def _on_error(self, wid: int, rid: int, ekind: str,
                  emsg: str) -> None:
        request, entry = self._pop_flight(wid, rid)
        self._release(entry)
        if request is None:
            return
        error = error_from_kind(ekind, emsg)
        if ekind in ("deadline", "unknown-model", "bad-request"):
            self._fail(request, error, missed=ekind == "deadline")
        else:
            # Transient worker-side failure: spend a failover attempt.
            self._retry_or_fail(request, error)

    def _on_worker_up(self, wid: int) -> None:
        with self._cond:
            if self._stopped_locked():
                return
            self._healthy.add(wid)
            self._cond.notify_all()

    def _on_worker_down(self, wid: int, reason: str) -> None:
        """Supervisor confirmed the worker dead (already joined):
        reclaim its blocks and requeue everything it held."""
        with self._cond:
            self._healthy.discard(wid)
            flights = list(self._inflight[wid].values())
            self._inflight[wid].clear()
            self._m_worker_inflight[wid].set(0)
            entries = [self._blocks.pop(r.id, None) for r in flights]
            self._cond.notify_all()
        for entry in entries:
            self._release(entry)
        flight_note("fleet requeueing after worker death", worker=wid,
                    reason=reason, inflight=len(flights))
        for request in flights:
            self._m_failover.inc()
            self._retry_or_fail(request, ServingError(
                f"worker {wid} died mid-request: {reason}"))

    def _retry_or_fail(self, request: FleetRequest,
                       error: BaseException) -> None:
        if (request.deadline is not None
                and time.monotonic() > request.deadline):
            self._fail(request, DeadlineExceeded(
                f"request {request.id} ran out of deadline after "
                f"{request.attempts} attempt(s); last error: {error}"),
                missed=True)
            return
        if request.attempts >= self.max_attempts:
            self._fail(request, ServingError(
                f"request {request.id} failed after "
                f"{request.attempts} attempt(s): {error}"))
            return
        with self._cond:
            stopped = self._stopped_locked()
            if not stopped:
                # Older than anything queued: it goes first.
                self._queue.appendleft(request)
                self._m_depth.set(len(self._queue))
                self._cond.notify_all()
        if stopped:
            self._fail(request, ServerClosed(
                f"fleet stopped before request {request.id} resolved"))
        else:
            self._m_requeued.inc()

    def _fail(self, request: FleetRequest, error: BaseException,
              missed: bool = False) -> None:
        if missed and request.worker is not None:
            with self._cond:
                self._worker_stats[request.worker]["deadline_missed"] += 1
        self._record_dispatch_span(request)
        super()._fail(request, error, missed=missed)

    def _record_dispatch_span(self, request: FleetRequest) -> None:
        tracer = get_tracer()
        if (tracer.enabled and request.trace_ctx is not None
                and request.dispatched_at is not None):
            tracer.record(
                "fleet.dispatch",
                tracer.from_monotonic(request.dispatched_at),
                tracer.now(), category="serving",
                parent=request.trace_ctx, worker=request.worker,
                attempt=request.attempts, request=request.id)

    def _release(self, entry: Optional[tuple]) -> None:
        """Recycle a dispatched request's (input, output) blocks."""
        if entry is not None and self._pool is not None:
            self._pool.deallocate(entry[0])
            self._pool.deallocate(entry[1])

    # -- background hygiene --------------------------------------------

    def _janitor_loop(self) -> None:
        """Expire queued requests whose deadline passed while no worker
        could take them (e.g. all quarantined)."""
        while True:
            time.sleep(0.05)
            now = time.monotonic()
            with self._cond:
                if self._stopped_locked():
                    return
                expired = [r for r in self._queue
                           if r.deadline is not None and now > r.deadline]
                if expired:
                    for request in expired:
                        self._queue.remove(request)
                    self._m_depth.set(len(self._queue))
                    self._cond.notify_all()
            for request in expired:
                self._fail(request, DeadlineExceeded(
                    f"request {request.id} expired before any worker "
                    f"could take it"), missed=True)
