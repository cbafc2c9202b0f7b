"""Discrete-event serving simulator for capacity planning.

:mod:`repro.simulate.des` schedules one task graph on a modelled
machine; this module lifts the same event-heap technique one level up,
to the *serving* tier: open-loop arrivals from a workload trace
(:mod:`repro.loadgen.traces`), a bounded FIFO admission queue with
the pipeline's priority shed fractions
(:func:`repro.serving.lifecycle.admission_limit`), W parallel workers
with per-request service costs derived from a measured
``cost_model.json`` (:mod:`repro.observability.profile`), and an
optional autoscaler ticking at a fixed control interval.

The simulation is a pure function of ``(trace, config, policy)``:
no wall clock, no randomness beyond the trace itself.  That is what
makes ``repro loadtest --sim`` byte-identical across runs, and what
lets the calibration report attribute sim-vs-live deltas to model
error instead of nondeterminism.

Cost model
----------
Service time for a request of shape ``(a, b, c)`` is::

    overhead_seconds + seconds_per_voxel * a * b * c

``ServiceModel.from_cost_model`` derives ``seconds_per_voxel`` from
the forward-pass entries of a profiler document (measured seconds per
processed voxel); the default constants are calibrated to the tiny
CI-sized networks so smoke lanes work without a profile run.
"""

from __future__ import annotations

import heapq
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, List, Optional, Tuple

from repro.loadgen.autoscale import AutoscalePolicy, ScaleDecision, Signals
from repro.loadgen.traces import Trace
from repro.observability.profile import forward_samples
from repro.serving.lifecycle import admission_limit

__all__ = [
    "ServiceModel",
    "SimConfig",
    "SimRequestOutcome",
    "SimResult",
    "simulate_serving",
]

#: EWMA smoothing for the simulated wait signal (matches the serving
#: tier's 0.8/0.2 service-time EWMA).
_EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class ServiceModel:
    """Per-request service cost: ``overhead + spv * voxels``."""

    seconds_per_voxel: float = 2e-6
    overhead_seconds: float = 0.01

    def service_seconds(self, shape: Tuple[int, int, int]) -> float:
        voxels = shape[0] * shape[1] * shape[2]
        return self.overhead_seconds + self.seconds_per_voxel * voxels

    @classmethod
    def from_cost_model(cls, doc: dict,
                        overhead_seconds: float = 0.01
                        ) -> "ServiceModel":
        """Derive seconds-per-voxel from a validated cost-model
        document's forward-pass entries: one request costs the sum of
        every edge's mean forward seconds — transfer and filter edges
        included — per voxel of the network input (the largest profiled
        ``image_shape``, which only conv entries carry).  Falls back to
        the defaults when the document has no usable fwd samples."""
        seconds = 0.0
        voxels = 0
        for sample in forward_samples(doc).values():
            seconds += sample["mean_seconds"]
            if sample["image_shape"]:
                voxels = max(voxels, math.prod(sample["image_shape"]))
        if voxels <= 0 or seconds <= 0:
            return cls(overhead_seconds=overhead_seconds)
        return cls(seconds_per_voxel=seconds / voxels,
                   overhead_seconds=overhead_seconds)


@dataclass(frozen=True)
class SimConfig:
    """Knobs of one simulated replay."""

    workers: int = 2
    max_queue: int = 32
    service: ServiceModel = field(default_factory=ServiceModel)
    #: Seconds between autoscaler observe-decide-act ticks (ignored
    #: without a policy).
    control_interval: float = 0.5

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(
                f"workers must be >= 1, got {self.workers}")
        if self.max_queue < 1:
            raise ValueError(
                f"max_queue must be >= 1, got {self.max_queue}")
        if self.control_interval <= 0:
            raise ValueError(
                f"control_interval must be > 0, got "
                f"{self.control_interval}")


@dataclass(frozen=True)
class SimRequestOutcome:
    """One request's simulated fate."""

    index: int
    #: "served" | "shed" | "deadline"
    status: str
    arrival: float
    #: Queue wait (dispatch - arrival), None unless served.
    wait: Optional[float]
    #: End-to-end latency (finish - arrival), None unless served.
    latency: Optional[float]


@dataclass(frozen=True)
class SimResult:
    """Everything the loadtest report needs from one sim run."""

    outcomes: Tuple[SimRequestOutcome, ...]
    #: Capacity integral over the run (workers × seconds).
    worker_seconds: float
    #: Simulated time at which the last event fired.
    end_time: float
    decisions: Tuple[ScaleDecision, ...]
    final_workers: int

    @property
    def served(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "served")


# Event kinds, ordered so simultaneous events resolve deterministically:
# finishes free capacity before the control loop observes, and both
# happen before the next arrival is admitted.
_EV_FINISH = 0
_EV_CONTROL = 1
_EV_ARRIVE = 2


# deterministic
def simulate_serving(trace: Trace, config: SimConfig,
                     policy: Optional[AutoscalePolicy] = None
                     ) -> SimResult:
    """Replay *trace* through the simulated serving tier."""
    requests = trace.requests
    n = len(requests)
    # (time, kind, seq) on the heap; payload looked up by seq.
    events: List[Tuple[float, int, int]] = []
    for i, request in enumerate(requests):
        heapq.heappush(events, (request.t, _EV_ARRIVE, i))
    capacity = config.workers
    if policy is not None:
        capacity = min(max(capacity, policy.min_workers),
                       policy.max_workers)
        heapq.heappush(events,
                       (config.control_interval, _EV_CONTROL, -1))
    busy = 0
    # Ready queue in arrival order, as both live front ends dequeue:
    # priority only decides admission, never who goes first.
    queue: Deque[int] = deque()
    outcomes: List[Optional[SimRequestOutcome]] = [None] * n
    ewma_wait = 0.0
    worker_seconds = 0.0
    last_t = 0.0
    done = 0
    decisions: List[ScaleDecision] = []
    control_seq = 0

    def dispatch(now: float) -> None:
        nonlocal busy, ewma_wait, done
        while busy < capacity and queue:
            i = queue.popleft()
            request = requests[i]
            wait = now - request.t
            if (request.deadline is not None
                    and wait > request.deadline):
                outcomes[i] = SimRequestOutcome(
                    index=i, status="deadline", arrival=request.t,
                    wait=None, latency=None)
                done += 1
                continue
            ewma_wait = ((1.0 - _EWMA_ALPHA) * ewma_wait
                         + _EWMA_ALPHA * wait)
            busy += 1
            service = config.service.service_seconds(request.shape)
            heapq.heappush(events, (now + service, _EV_FINISH, i))

    while events:
        now, kind, seq = heapq.heappop(events)
        # Cost is provisioned capacity, except a draining scale-down
        # still pays for workers finishing their in-flight request.
        worker_seconds += max(capacity, busy) * (now - last_t)
        last_t = now
        if kind == _EV_ARRIVE:
            request = requests[seq]
            limit = admission_limit(request.priority,
                                    config.max_queue)
            if len(queue) >= limit:
                outcomes[seq] = SimRequestOutcome(
                    index=seq, status="shed", arrival=request.t,
                    wait=None, latency=None)
                done += 1
            else:
                queue.append(seq)
            dispatch(now)
        elif kind == _EV_FINISH:
            request = requests[seq]
            busy -= 1
            latency = now - request.t
            service = config.service.service_seconds(request.shape)
            outcomes[seq] = SimRequestOutcome(
                index=seq, status="served", arrival=request.t,
                wait=latency - service, latency=latency)
            done += 1
            dispatch(now)
        else:  # _EV_CONTROL
            signals = Signals(queue_depth=len(queue),
                              ewma_wait_seconds=ewma_wait,
                              inflight=busy, workers=capacity)
            assert policy is not None
            target = min(max(policy.decide(signals),
                             policy.min_workers),
                         policy.max_workers)
            decisions.append(ScaleDecision(
                t=now, workers=capacity, target=target,
                queue_depth=len(queue),
                ewma_wait_seconds=ewma_wait))
            capacity = target
            dispatch(now)
            control_seq += 1
            if done < n:
                heapq.heappush(events, (
                    (control_seq + 1) * config.control_interval,
                    _EV_CONTROL, -1))

    assert done == n and busy == 0 and not queue
    final = [o for o in outcomes if o is not None]
    assert len(final) == n
    return SimResult(outcomes=tuple(final),
                     worker_seconds=worker_seconds,
                     end_time=last_t,
                     decisions=tuple(decisions),
                     final_workers=capacity)
