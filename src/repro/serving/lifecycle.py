"""The request lifecycle shared by every serving front end.

:class:`RequestLifecycle` owns the *policy* of what happens to a
request between ``submit()`` and resolution; the in-process
:class:`~repro.serving.pipeline.InferenceServer` and the multi-process
:class:`~repro.serving.fleet.FleetServer` router subclass it and supply
only where requests wait and who runs them.

* **State machine.**  ``new → ok → draining → stopped``, one guarded
  string.  Only ``ok`` admits; ``draining``
  (:meth:`~RequestLifecycle.begin_drain`) refuses new work with
  :class:`ServerDraining` while accepted work finishes; ``stopped``
  fails whatever is left with :class:`ServerClosed` — a client always
  learns the fate of its request, nothing is silently dropped.
* **Validation before admission.**  A volume is normalised to 3D
  float64 and checked against the model's field of view; unknown
  models, bad ranks, non-finite voxels and too-small volumes fail in
  the caller's thread and never cost a queue slot.
* **One FIFO.**  Admitted requests wait in one queue, oldest first;
  every free worker of either front end pops from its head, so no
  worker idles while a request waits for it.
* **Tiered admission.**  Requests carry a priority (0 = high,
  1 = normal, 2 = low).  Each tier may only fill a fraction of the
  queue (:data:`ADMISSION_FRACTIONS`), so under sustained overload the
  lowest tiers are shed first.  The accept decision happens under the
  condition; the rejection (metrics, ``retry_after`` hint) outside it.
* **Deadlines.**  ``timeout`` becomes an absolute monotonic deadline;
  a request found past it fails with :class:`DeadlineExceeded` instead
  of wasting compute on an answer nobody is waiting for.
* **Retry hint.**  ``retry_after`` is the time for the current queue
  to clear the worker pool at the EWMA of recent service times.
* **Accounting.**  ``serving.requests.{accepted,rejected,completed,
  failed,deadline_missed}``, SLO observation, and the request's root
  ``request`` span are recorded here, once.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from collections import deque
from typing import Deque, List, Optional, Sequence

import numpy as np

from repro.analysis.runtime import make_condition, make_lock
from repro.observability.metrics import get_registry
from repro.observability.slo import SLOTracker
from repro.observability.tracing import flight_note, get_tracer

__all__ = [
    "ServingError",
    "ServerOverloaded",
    "ServerClosed",
    "ServerDraining",
    "DeadlineExceeded",
    "PendingRequest",
    "RequestLifecycle",
    "PRIORITY_HIGH",
    "PRIORITY_NORMAL",
    "PRIORITY_LOW",
    "ADMISSION_FRACTIONS",
    "admission_limit",
]

#: Request priority tiers.  Lower value = more important.  Under
#: overload the *highest-numbered* tiers are shed first.
PRIORITY_HIGH = 0
PRIORITY_NORMAL = 1
PRIORITY_LOW = 2

#: Fraction of the admission queue each priority tier may fill.  A
#: tier-p submission is shed once the queue depth reaches
#: ``max_queue * ADMISSION_FRACTIONS[p]`` — so when the queue is half
#: full, low-priority tenants are already rejected while normal and
#: high traffic still gets in.
ADMISSION_FRACTIONS = {
    PRIORITY_HIGH: 1.0,
    PRIORITY_NORMAL: 0.85,
    PRIORITY_LOW: 0.5,
}


def admission_limit(priority: int, max_queue: int) -> int:
    """Queue depth at which tier-*priority* submissions are shed.

    Rounds up: on small queues a 0.85 fraction must not cost the
    normal tier a slot it would have had before tiers existed.
    """
    try:
        fraction = ADMISSION_FRACTIONS[priority]
    except KeyError:
        raise ValueError(
            f"priority must be one of {sorted(ADMISSION_FRACTIONS)}, "
            f"got {priority!r}") from None
    return max(1, math.ceil(max_queue * fraction))


class ServingError(Exception):
    """Base class for serving-layer failures."""


class ServerOverloaded(ServingError):
    """The admission queue is full; retry after ``retry_after`` seconds.

    This is backpressure, not failure: the request was never accepted,
    so the client may safely resubmit.
    """

    def __init__(self, message: str, retry_after: float) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class ServerClosed(ServingError):
    """The server was stopped; the request was not (or will not be) run."""


class ServerDraining(ServerClosed):
    """The server is draining for shutdown: it no longer admits new
    requests (in-flight ones still finish).  A subclass of
    :class:`ServerClosed` so clients treat it as terminal for this
    server rather than retrying against it.
    """

    def __init__(self, message: str, retry_after: float = 1.0) -> None:
        super().__init__(message)
        self.retry_after = retry_after


class DeadlineExceeded(ServingError):
    """The request's deadline passed while it waited in the queue."""


class PendingRequest:
    """Handle for one accepted request; resolves to a dense output."""

    _ids = itertools.count(1)

    def __init__(self, model: str, volume: np.ndarray,
                 deadline: Optional[float],
                 priority: int = PRIORITY_NORMAL) -> None:
        self.id = next(self._ids)
        self.model = model
        self.volume = volume
        #: Absolute monotonic deadline, or None.
        self.deadline = deadline
        #: Admission tier (see :data:`ADMISSION_FRACTIONS`).
        self.priority = priority
        self.accepted_at = time.monotonic()
        #: The model's field of view, resolved once at admission.
        self.fov: Optional[Sequence[int]] = None
        #: Root span context of the request's trace (set at admission
        #: when tracing is on; every tile/task span descends from it).
        self.trace_ctx = None
        #: The request's trace id as a string ("" when tracing is off)
        #: — what the HTTP layer echoes back as ``X-Trace-Id``.
        self.trace_id = ""
        self._done = threading.Event()
        self._result: Optional[np.ndarray] = None
        self._error: Optional[BaseException] = None

    def done(self) -> bool:
        return self._done.is_set()

    def result(self, timeout: Optional[float] = None) -> np.ndarray:
        """Block until the request resolves; return the dense output or
        raise the failure."""
        if not self._done.wait(timeout):
            raise TimeoutError(
                f"request {self.id} not done within {timeout}s")
        if self._error is not None:
            raise self._error
        assert self._result is not None
        return self._result

    def _resolve(self, result: Optional[np.ndarray],
                 error: Optional[BaseException]) -> None:
        self._result = result
        self._error = error
        self._done.set()


#: Lifecycle states; ``health()["status"]`` reports them verbatim
#: (a server that was never started reports ``"stopped"``).
_STATE_NEW = "new"
_STATE_OK = "ok"
_STATE_DRAINING = "draining"
_STATE_STOPPED = "stopped"


class RequestLifecycle:
    """Admission, deadlines, drain and accounting for one front end.

    *depth_gauge* and *shed_counter* are the two metrics whose names
    differ by role (``serving.*`` vs ``fleet.*``); everything else is
    registered here.  Use as a context manager to guarantee
    :meth:`stop`.

    Admitted requests wait in ``_queue``, oldest first; a worker takes
    the head with :meth:`_pop_locked`.  A subclass provides ``start()``
    (guarded by :meth:`_mark_started`) and these hooks — the
    ``*_locked`` ones run with ``_cond`` held and must not block or
    re-acquire it:

    ``_fov(model)``
        the model's field of view; ``KeyError`` when unknown.
    ``_model_names()``
        sorted servable model names, for :meth:`health`.
    ``_pending_locked()``
        requests accepted but not yet resolved (queued + running).
    ``_take_leftovers_locked()``
        remove and return the running requests :meth:`stop` must fail
        besides the queued ones (default: none).
    ``_health_locked()``
        role-specific :meth:`health` entries.
    ``_hint_workers()``
        workers currently draining the queue (for the retry hint).
    ``_shutdown()``
        stop workers and release resources, after leftovers failed.
    """

    #: ``"server"`` or ``"fleet"``: ``health()["role"]``, the label on
    #: the EWMA gauge, and the noun in refusal messages.
    role = "server"
    #: The request handle :meth:`submit` creates.
    request_class = PendingRequest

    def __init__(self, max_queue: int, cond_name: str,
                 depth_gauge, shed_counter) -> None:
        if max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.max_queue = max_queue
        self._cond = make_condition(cond_name)
        self._state = _STATE_NEW  # guarded-by: _cond
        #: Admitted requests not yet taken by a worker, oldest first.
        self._queue: Deque[PendingRequest] = deque()  # guarded-by: _cond
        # EWMA of per-request service seconds, for retry_after hints.
        self._ewma_lock = make_lock("serving.ewma")
        self._ewma_service = 0.1  # guarded-by: _ewma_lock
        reg = get_registry()
        self._g_ewma = reg.gauge("serving.service.ewma_seconds",
                                 role=self.role)
        self._g_ewma.set(self._ewma_service)
        self._m_depth = depth_gauge
        self._m_shed = shed_counter
        self._m_accepted = reg.counter("serving.requests.accepted")
        self._m_rejected = reg.counter("serving.requests.rejected")
        self._m_completed = reg.counter("serving.requests.completed")
        self._m_failed = reg.counter("serving.requests.failed")
        self._m_missed = reg.counter("serving.requests.deadline_missed")
        #: SLO accounting (docs/observability.md): admission-wait /
        #: service / e2e quantiles + deadline attainment.
        self.slo = SLOTracker(registry=reg)

    # -- state machine -------------------------------------------------

    def _mark_started(self) -> bool:
        """``new → ok``.  False when already started (or stopped), so
        ``start()`` is idempotent."""
        with self._cond:
            if self._state != _STATE_NEW:
                return False
            self._state = _STATE_OK
            return True

    def _admitting_locked(self) -> bool:
        return self._state == _STATE_OK

    def _stopped_locked(self) -> bool:
        return self._state == _STATE_STOPPED

    def begin_drain(self) -> None:
        """Stop admitting; queued and in-flight requests keep running.

        New submissions fail with :class:`ServerDraining` and
        :meth:`health` reports ``"draining"`` (the HTTP layer turns
        that into 503 so load balancers stop routing here).
        """
        with self._cond:
            if self._state == _STATE_OK:
                self._state = _STATE_DRAINING
                self._cond.notify_all()
        flight_note(f"{self.role} draining")

    def wait_drained(self, timeout: Optional[float] = None) -> bool:
        """Block until nothing is queued or in flight (or *timeout*
        passes).  Returns True when fully drained."""
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._cond:
            while self._pending_locked() and not self._stopped_locked():
                remaining = (0.02 if deadline is None
                             else deadline - time.monotonic())
                if remaining <= 0:
                    break
                self._cond.wait(min(remaining, 0.02))
            return not self._pending_locked()

    def drain(self, timeout: Optional[float] = None) -> bool:
        """Graceful shutdown: stop admitting, finish everything that
        was accepted, then stop.  Returns True when every accepted
        request resolved before *timeout* (leftovers are failed with
        :class:`ServerClosed` by :meth:`stop`, never dropped)."""
        self.begin_drain()
        drained = self.wait_drained(timeout)
        self.stop()
        return drained

    def stop(self) -> None:
        """Stop workers and *fail* (not drop) everything unresolved."""
        with self._cond:
            if self._state == _STATE_STOPPED:
                return
            self._state = _STATE_STOPPED
            leftovers = list(self._queue)
            self._queue.clear()
            leftovers.extend(self._take_leftovers_locked())
            self._m_depth.set(0)
            self._cond.notify_all()
        for request in leftovers:
            self._fail(request, ServerClosed(
                f"{self.role} stopped before request {request.id} "
                f"resolved"))
        self._shutdown()

    def _take_leftovers_locked(self) -> List[PendingRequest]:
        return []

    def __enter__(self):
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    # -- admission -----------------------------------------------------

    def _hint_for_depth(self, depth: int) -> float:
        """Suggested client backoff: time for a queue of *depth* to
        drain through the worker pool at recent service speed.  Takes
        the EWMA lock — never call it with ``_cond`` held."""
        with self._ewma_lock:
            service = self._ewma_service
        return max(0.05,
                   (depth + 1) * service / max(self._hint_workers(), 1))

    def submit(self, model: str, volume: np.ndarray,
               timeout: Optional[float] = None,
               trace_id: Optional[str] = None,
               priority: int = PRIORITY_NORMAL) -> PendingRequest:
        """Admit a request or reject it with :class:`ServerOverloaded`.

        *timeout* (seconds) becomes the request's deadline: if it is
        still queued when the deadline passes it fails with
        :class:`DeadlineExceeded`.  *trace_id* adopts a caller-supplied
        trace (the HTTP layer's ``X-Trace-Id``); with tracing enabled
        and no id given, a fresh trace is started per request.
        *priority* selects the admission tier: low-priority requests
        are shed at a lower queue depth than high-priority ones.
        """
        if np.iscomplexobj(volume):  # float64 would drop the imaginary part
            raise ValueError("volume is complex-valued; voxels must be real")
        volume = np.asarray(volume, dtype=np.float64)
        if volume.ndim == 2:
            volume = volume[np.newaxis, ...]
        if volume.ndim != 3:
            raise ValueError(
                f"volume must be 2D or 3D, got {volume.ndim}D")
        if not np.isfinite(volume).all():  # NaN fills a whole FFT tile
            raise ValueError("volume has non-finite voxels (NaN or Inf)")
        limit = admission_limit(priority, self.max_queue)
        fov = self._fov(model)  # unknown models fail fast, pre-queue
        if any(v < f for v, f in zip(volume.shape, fov)):
            raise ValueError(
                f"volume {volume.shape} smaller than model "
                f"{model!r}'s field of view {tuple(fov)}")
        deadline = None if timeout is None else time.monotonic() + timeout
        request = self.request_class(model, volume, deadline,
                                     priority=priority)
        request.fov = fov
        tracer = get_tracer()
        if tracer.enabled:
            request.trace_ctx = tracer.make_context(trace_id)
            request.trace_id = request.trace_ctx.trace_id
        with self._cond:
            state = self._state
            depth = len(self._queue)
            if state == _STATE_OK and depth < limit:
                self._queue.append(request)
                self._m_depth.set(depth + 1)
                self._cond.notify_all()
                self._m_accepted.inc()
                return request
        # Rejection happens outside the condition: the hint takes the
        # EWMA lock (and may ask a subclass for its worker count), and
        # the condition's lock is not reentrant.
        if state == _STATE_DRAINING:
            raise ServerDraining(
                f"{self.role} is draining; submit elsewhere",
                retry_after=self._hint_for_depth(depth))
        if state != _STATE_OK:
            raise ServerClosed(f"{self.role} is stopped")
        self._m_rejected.inc()
        if limit < self.max_queue:
            # Sheddable tier rejected below full capacity: count it as
            # deliberate tiered load shedding, not plain overload.
            self._m_shed.inc()
        raise ServerOverloaded(
            f"{self.role} admission queue full for priority {priority} "
            f"({depth}/{limit} of {self.max_queue}); retry later",
            retry_after=self._hint_for_depth(depth))

    def infer(self, model: str, volume: np.ndarray,
              timeout: Optional[float] = None,
              trace_id: Optional[str] = None,
              priority: int = PRIORITY_NORMAL) -> np.ndarray:
        """Blocking convenience: submit and wait for the dense output."""
        return self.submit(model, volume, timeout=timeout,
                           trace_id=trace_id, priority=priority).result()

    @property
    def queue_depth(self) -> int:
        with self._cond:
            return len(self._queue)

    def _pop_locked(self) -> PendingRequest:
        """Take the oldest queued request (the caller checked there is
        one)."""
        request = self._queue.popleft()
        self._m_depth.set(len(self._queue))
        return request

    def health(self) -> dict:
        """Robustness-aware health snapshot (what ``/healthz`` serves).

        ``status`` is ``"ok"``, ``"draining"`` or ``"stopped"``; the
        admission block reports depth against both total capacity and
        each priority tier's shed threshold.  Subclasses contribute
        their own entries through :meth:`_health_locked`.
        """
        with self._cond:
            state = self._state
            depth = len(self._queue)
            detail = self._health_locked()
        return {
            "status": _STATE_STOPPED if state == _STATE_NEW else state,
            "role": self.role,
            "models": self._model_names(),
            "queue_depth": depth,
            "max_queue": self.max_queue,
            **detail,
            "admission": {
                "depth": depth,
                "capacity": self.max_queue,
                "limits": {
                    str(p): admission_limit(p, self.max_queue)
                    for p in sorted(ADMISSION_FRACTIONS)
                },
            },
        }

    # -- resolution ----------------------------------------------------

    def _expired(self, request: PendingRequest, now: float) -> bool:
        """Fail *request* if its deadline passed while it queued."""
        if request.deadline is None or now <= request.deadline:
            return False
        self._fail(request, DeadlineExceeded(
            f"request {request.id} spent "
            f"{now - request.accepted_at:.3f}s queued, past its "
            f"deadline"), missed=True)
        return True

    def _complete(self, request: PendingRequest, result: np.ndarray,
                  started: float) -> None:
        """Resolve *request* with *result*; service ran since the
        monotonic stamp *started*."""
        now = time.monotonic()
        service = now - started
        self.slo.observe(started - request.accepted_at, service,
                         now - request.accepted_at,
                         deadline_met=True if request.deadline is not None
                         else None)
        with self._ewma_lock:
            self._ewma_service = 0.8 * self._ewma_service + 0.2 * service
            ewma = self._ewma_service
        self._g_ewma.set(ewma)
        self._m_completed.inc()
        self._close_trace(request, "ok")
        request._resolve(result, None)

    def _fail(self, request: PendingRequest, error: BaseException,
              missed: bool = False) -> None:
        """Resolve *request* with *error*; *missed* marks a deadline
        miss (counted, and observed as an SLO violation)."""
        self._m_failed.inc()
        if missed:
            self._m_missed.inc()
            self.slo.observe(time.monotonic() - request.accepted_at,
                             None, None, deadline_met=False)
        self._close_trace(
            request, "deadline_exceeded" if missed else "error")
        request._resolve(None, error)

    def _close_trace(self, request: PendingRequest, status: str) -> None:
        """Record the request's root span (accept → resolved)."""
        tracer = get_tracer()
        if tracer.enabled and request.trace_ctx is not None:
            tracer.record("request",
                          tracer.from_monotonic(request.accepted_at),
                          tracer.now(), category="serving",
                          context=request.trace_ctx, status=status,
                          model=request.model, request=request.id)
