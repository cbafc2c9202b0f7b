"""Open-loop trace replay against a live serving endpoint.

Drives the *same* trace the simulator consumes against a real
:class:`~repro.serving.pipeline.InferenceServer` or
:class:`~repro.serving.fleet.FleetServer` (both expose the same
``submit`` contract).  The replay is **open-loop**: request *i* is
submitted at ``start + t_i / speed`` regardless of how the previous
requests fared — the defining property of production traffic, and the
reason overload shows up as shed/deadline counts instead of silently
stretching the run.

Outcomes are classified exactly as the report schema counts them:

* ``served`` — the request resolved with a result;
* ``shed`` — admission rejected it (``ServerOverloaded`` /
  ``ServerDraining``);
* ``deadline`` — it resolved with ``DeadlineExceeded``;
* ``failed`` — any other error.

Per-request completion runs on small waiter threads; their number is
bounded by the server's own admission capacity (queue + in-flight),
so a replay can never fork unbounded threads.  The server's
:class:`~repro.observability.slo.SLOTracker` keeps recording as
usual — the replay adds its own sample list only because report
quantiles are exact order statistics, not histogram estimates.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.analysis.runtime import make_lock
from repro.loadgen.traces import Trace
from repro.serving.lifecycle import (
    DeadlineExceeded,
    ServerClosed,
    ServerDraining,
    ServerOverloaded,
)

__all__ = ["LiveOutcome", "LiveReplayResult", "replay_trace"]


@dataclass(frozen=True)
class LiveOutcome:
    """One request's live fate."""

    index: int
    #: "served" | "shed" | "deadline" | "failed"
    status: str
    #: Submit-to-resolve latency in seconds (served requests only).
    latency: Optional[float]


@dataclass(frozen=True)
class LiveReplayResult:
    """Everything the loadtest report needs from one live replay."""

    outcomes: Tuple[LiveOutcome, ...]
    #: Wall-clock seconds the replay took (submit of first request to
    #: resolution of the last).
    elapsed: float

    @property
    def served(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "served")


def _volume_for(shape: Tuple[int, int, int], index: int) -> np.ndarray:
    """A cheap deterministic volume: content does not affect load, so
    a constant ramp beats per-request RNG draws."""
    volume = np.zeros(shape, dtype=np.float64)
    volume.flat[0] = float(index % 7)
    return volume


def replay_trace(trace: Trace, server, speed: float = 1.0,
                 on_progress=None) -> LiveReplayResult:
    """Replay *trace* against *server* (anything with ``submit``).

    ``speed`` > 1 compresses time: arrivals and deadlines are divided
    by it, so a 30-second trace replays in 30/speed wall seconds —
    the knob CI smoke lanes use.
    """
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    lock = make_lock("loadgen.replay")
    outcomes: List[Optional[LiveOutcome]] = \
        [None] * len(trace.requests)  # guarded-by: lock
    waiters: List[threading.Thread] = []
    start = time.monotonic()

    def record(index: int, status: str,
               latency: Optional[float]) -> None:
        with lock:
            outcomes[index] = LiveOutcome(index=index, status=status,
                                          latency=latency)
        if on_progress is not None:
            on_progress(index, status)

    def wait_for(index: int, pending, submitted: float) -> None:
        try:
            pending.result()
        except DeadlineExceeded:
            record(index, "deadline", None)
        except Exception:
            record(index, "failed", None)
        else:
            record(index, "served", time.monotonic() - submitted)

    for index, request in enumerate(trace.requests):
        delay = start + request.t / speed - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        timeout = (None if request.deadline is None
                   else request.deadline / speed)
        volume = _volume_for(request.shape, index)
        submitted = time.monotonic()
        try:
            pending = server.submit(request.model, volume,
                                    timeout=timeout,
                                    priority=request.priority)
        except (ServerOverloaded, ServerDraining):
            record(index, "shed", None)
        except ServerClosed:
            record(index, "failed", None)
        else:
            waiter = threading.Thread(
                target=wait_for, args=(index, pending, submitted),
                name=f"replay-wait-{index}", daemon=True)
            waiter.start()
            waiters.append(waiter)
    for waiter in waiters:
        waiter.join()
    elapsed = time.monotonic() - start
    with lock:
        final = list(outcomes)
    assert all(o is not None for o in final)
    return LiveReplayResult(outcomes=tuple(final), elapsed=elapsed)
