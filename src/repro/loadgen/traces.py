"""Seed-deterministic workload-trace generation.

Capacity planning starts from production-shaped traffic, not uniform
arrivals: real serving load has diurnal cycles, flash crowds and
heavy-tailed request sizes.  This module generates such traces as pure
functions of a :class:`TraceConfig` — the same seed always yields the
byte-identical trace, which is what lets ``repro loadtest`` replay one
trace both live and in simulation and compare the two.

Arrival process
---------------
A nonhomogeneous Poisson process sampled by *thinning* (Lewis &
Shedler): candidate arrivals are drawn from a homogeneous process at
the peak rate and accepted with probability ``rate(t) / peak``.  The
instantaneous rate is::

    rate(t) = base_rate
              * (1 + diurnal_amplitude * sin(2*pi*t / diurnal_period))
              * flash(t)

where ``flash(t)`` is the product of the multipliers of every
:class:`FlashCrowd` covering ``t``.  Arrival times are strictly
increasing.

Request sizes
-------------
Cube edges are drawn from a bounded Pareto distribution (heavy tail —
most requests are small, a few are huge) and snapped down to 11-smooth
lengths via :func:`repro.serving.tiler.largest_fast_len`, so every
generated volume is FFT-friendly and the warm-model cache sees a small
set of distinct tile shapes instead of one per request.

Model / priority mixes
----------------------
Assigned by smooth weighted round-robin (the nginx algorithm): over
any prefix of the trace each key's count deviates from its weight
share by less than one request.  Mix proportions are therefore
*conserved*, not merely expected — the property test pins this down.

Serialisation
-------------
``repro.workload/v1`` JSONL: a header object carrying the config,
then one object per request (``t``, ``model``, ``shape``,
``priority``, ``deadline``).  Validation is hand-rolled in the style
of :func:`repro.observability.profile.validate_cost_model`.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Tuple

from repro.serving.lifecycle import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
)
from repro.serving.tiler import largest_fast_len

__all__ = [
    "WORKLOAD_SCHEMA",
    "WorkloadError",
    "FlashCrowd",
    "TraceConfig",
    "TraceRequest",
    "Trace",
    "generate_trace",
    "scenario_config",
    "SCENARIOS",
    "write_trace",
    "load_trace",
]

#: Schema tag of serialized workload traces.
WORKLOAD_SCHEMA = "repro.workload/v1"


class WorkloadError(ValueError):
    """A trace document failed validation."""


@dataclass(frozen=True)
class FlashCrowd:
    """A transient rate spike: ``multiplier``× between ``start`` and
    ``start + duration`` seconds into the trace."""

    start: float
    duration: float
    multiplier: float

    def factor(self, t: float) -> float:
        if self.start <= t < self.start + self.duration:
            return self.multiplier
        return 1.0


@dataclass(frozen=True)
class TraceConfig:
    """Everything that determines a trace (pure function of this)."""

    name: str = "steady"
    seed: int = 0
    #: Trace length in seconds.
    duration: float = 60.0
    #: Long-run mean arrival rate in requests/second (before diurnal
    #: modulation and flash crowds).
    base_rate: float = 1.0
    #: Diurnal swing as a fraction of base_rate (0 = flat).
    diurnal_amplitude: float = 0.0
    #: Period of the diurnal sine in seconds.
    diurnal_period: float = 86400.0
    flash_crowds: Tuple[FlashCrowd, ...] = ()
    #: Bounded-Pareto tail exponent for cube edge lengths.
    size_alpha: float = 2.5
    #: Smallest / largest cube edge (inclusive bounds, voxels).
    size_min: int = 12
    size_max: int = 32
    #: model name -> weight (normalised internally).
    model_mix: Dict[str, float] = field(
        default_factory=lambda: {"default": 1.0})
    #: priority level -> weight.
    priority_mix: Dict[int, float] = field(
        default_factory=lambda: {PRIORITY_NORMAL: 1.0})
    #: Relative per-request deadline in seconds (None = no deadline).
    deadline: Optional[float] = 30.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise WorkloadError(
                f"duration must be > 0, got {self.duration}")
        if self.base_rate <= 0:
            raise WorkloadError(
                f"base_rate must be > 0, got {self.base_rate}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise WorkloadError(
                f"diurnal_amplitude must be in [0, 1), got "
                f"{self.diurnal_amplitude}")
        if self.size_alpha <= 0:
            raise WorkloadError(
                f"size_alpha must be > 0, got {self.size_alpha}")
        if not 1 <= self.size_min <= self.size_max:
            raise WorkloadError(
                f"need 1 <= size_min <= size_max, got "
                f"{self.size_min}..{self.size_max}")
        for mix, what in ((self.model_mix, "model_mix"),
                          (self.priority_mix, "priority_mix")):
            if not mix or any(w <= 0 for w in mix.values()):
                raise WorkloadError(
                    f"{what} needs at least one positive weight, "
                    f"got {mix!r}")
        for crowd in self.flash_crowds:
            if crowd.duration <= 0 or crowd.multiplier <= 0:
                raise WorkloadError(
                    f"flash crowd needs positive duration and "
                    f"multiplier, got {crowd!r}")

    def rate(self, t: float) -> float:
        """Instantaneous arrival rate at *t* seconds into the trace."""
        value = self.base_rate * (
            1.0 + self.diurnal_amplitude
            * math.sin(2.0 * math.pi * t / self.diurnal_period))
        for crowd in self.flash_crowds:
            value *= crowd.factor(t)
        return value

    def peak_rate(self) -> float:
        """An upper bound on :meth:`rate` (the thinning envelope)."""
        peak = self.base_rate * (1.0 + self.diurnal_amplitude)
        for crowd in self.flash_crowds:
            peak *= max(crowd.multiplier, 1.0)
        return peak

    def expected_requests(self) -> float:
        """``integral of rate(t) dt`` over the trace (closed form for
        the diurnal term, exact rectangles for flash crowds)."""
        # Diurnal integral: base * (T - A*P/2pi * (cos(2pi T/P) - 1)).
        two_pi = 2.0 * math.pi
        diurnal = self.base_rate * (
            self.duration
            - self.diurnal_amplitude * self.diurnal_period / two_pi
            * (math.cos(two_pi * self.duration / self.diurnal_period)
               - 1.0))
        extra = 0.0
        for crowd in self.flash_crowds:
            lo = max(0.0, crowd.start)
            hi = min(self.duration, crowd.start + crowd.duration)
            if hi > lo:
                # Approximate the overlap with the base rate (diurnal
                # modulation inside the window averages out).
                extra += (crowd.multiplier - 1.0) * self.base_rate \
                    * (hi - lo)
        return diurnal + extra


@dataclass(frozen=True)
class TraceRequest:
    """One generated request."""

    t: float
    model: str
    shape: Tuple[int, int, int]
    priority: int
    deadline: Optional[float]


@dataclass(frozen=True)
class Trace:
    """A generated (or loaded) workload trace."""

    config: TraceConfig
    requests: Tuple[TraceRequest, ...]

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def mean_rate(self) -> float:
        return len(self.requests) / self.config.duration

    def scaled(self, multiplier: float) -> "Trace":
        """The same trace compressed ``multiplier``× in time — the
        standard load-multiplier transform: identical request bodies
        and ordering, arrival rate scaled by *multiplier*."""
        if multiplier <= 0:
            raise WorkloadError(
                f"multiplier must be > 0, got {multiplier}")
        if multiplier == 1.0:
            return self
        config = replace(
            self.config,
            name=f"{self.config.name}x{multiplier:g}",
            duration=self.config.duration / multiplier,
            base_rate=self.config.base_rate * multiplier,
            diurnal_period=self.config.diurnal_period / multiplier,
            flash_crowds=tuple(
                FlashCrowd(c.start / multiplier,
                           c.duration / multiplier, c.multiplier)
                for c in self.config.flash_crowds))
        requests = tuple(
            TraceRequest(r.t / multiplier, r.model, r.shape,
                         r.priority, r.deadline)
            for r in self.requests)
        return Trace(config=config, requests=requests)


class _SmoothWRR:
    """Smooth weighted round-robin: deterministic, and over any prefix
    each key's count deviates from its weight share by < 1."""

    def __init__(self, weights: Dict) -> None:
        self._keys = sorted(weights)
        # Sum in sorted-key order so the float total (and with it the
        # whole schedule) is independent of dict insertion order.
        total = float(sum(weights[k] for k in self._keys))
        self._share = {k: weights[k] / total for k in self._keys}
        self._credit = {k: 0.0 for k in self._keys}

    def next(self):
        best = None
        for key in self._keys:
            self._credit[key] += self._share[key]
            if best is None or self._credit[key] > self._credit[best]:
                best = key
        self._credit[best] -= 1.0
        return best


def _snap_edge(edge: int, size_min: int) -> int:
    """Largest 11-smooth length in ``[size_min, edge]`` (falls back to
    *edge* when the window contains no 11-smooth integer)."""
    snapped = largest_fast_len(edge, floor=size_min)
    return snapped if snapped is not None else edge


def _sample_edge(rng: random.Random, config: TraceConfig) -> int:
    """Bounded-Pareto sample over ``[size_min, size_max]``, snapped
    down to an 11-smooth edge length."""
    lo, hi = float(config.size_min), float(config.size_max)
    if config.size_min == config.size_max:
        return config.size_min
    alpha = config.size_alpha
    u = rng.random()
    ratio = (lo / hi) ** alpha
    x = lo / (1.0 - u * (1.0 - ratio)) ** (1.0 / alpha)
    edge = min(max(int(x), config.size_min), config.size_max)
    return _snap_edge(edge, config.size_min)


# deterministic
def generate_trace(config: TraceConfig) -> Trace:
    """Generate the trace determined by *config* (pure function)."""
    rng = random.Random(config.seed)
    peak = config.peak_rate()
    models = _SmoothWRR(config.model_mix)
    priorities = _SmoothWRR(config.priority_mix)
    requests: List[TraceRequest] = []
    t = 0.0
    while True:
        # 1 - random() is in (0, 1]: log never sees zero, and the
        # exponential gap is strictly positive, so arrival times are
        # strictly increasing.
        t += -math.log(1.0 - rng.random()) / peak
        if t >= config.duration:
            break
        if rng.random() * peak > config.rate(t):
            continue  # thinned out
        edge = _sample_edge(rng, config)
        requests.append(TraceRequest(
            t=t, model=models.next(), shape=(edge, edge, edge),
            priority=priorities.next(), deadline=config.deadline))
    return Trace(config=config, requests=tuple(requests))


def scenario_config(scenario: str, *, seed: int = 0,
                    duration: float = 60.0, base_rate: float = 1.0,
                    size_min: int = 12, size_max: int = 32,
                    deadline: Optional[float] = 30.0) -> TraceConfig:
    """A named scenario preset (see :data:`SCENARIOS`)."""
    common = dict(seed=seed, duration=duration, base_rate=base_rate,
                  size_min=size_min, size_max=size_max,
                  deadline=deadline)
    if scenario == "steady":
        return TraceConfig(name="steady", **common)
    if scenario == "diurnal":
        return TraceConfig(
            name="diurnal", diurnal_amplitude=0.6,
            diurnal_period=duration, **common)
    if scenario == "flash-crowd":
        return TraceConfig(
            name="flash-crowd",
            flash_crowds=(FlashCrowd(start=duration * 0.4,
                                     duration=duration * 0.2,
                                     multiplier=5.0),),
            **common)
    if scenario == "multi-model":
        return TraceConfig(
            name="multi-model",
            model_mix={"default": 3.0, "alt": 1.0},
            priority_mix={PRIORITY_HIGH: 1.0, PRIORITY_NORMAL: 2.0,
                          PRIORITY_LOW: 1.0},
            **common)
    raise WorkloadError(
        f"unknown scenario {scenario!r}; use one of "
        f"{sorted(SCENARIOS)}")


#: Scenario presets accepted by ``repro loadtest --scenario``.
SCENARIOS = ("steady", "diurnal", "flash-crowd", "multi-model")


# ---------------------------------------------------------------------------
# JSONL serialisation (repro.workload/v1)
# ---------------------------------------------------------------------------


def _config_to_dict(config: TraceConfig) -> dict:
    return {
        "name": config.name,
        "seed": config.seed,
        "duration": config.duration,
        "base_rate": config.base_rate,
        "diurnal_amplitude": config.diurnal_amplitude,
        "diurnal_period": config.diurnal_period,
        "flash_crowds": [
            {"start": c.start, "duration": c.duration,
             "multiplier": c.multiplier}
            for c in config.flash_crowds],
        "size_alpha": config.size_alpha,
        "size_min": config.size_min,
        "size_max": config.size_max,
        "model_mix": dict(sorted(config.model_mix.items())),
        "priority_mix": {str(k): v for k, v
                         in sorted(config.priority_mix.items())},
        "deadline": config.deadline,
    }


def _config_from_dict(doc: dict) -> TraceConfig:
    try:
        return TraceConfig(
            name=doc["name"], seed=doc["seed"],
            duration=doc["duration"], base_rate=doc["base_rate"],
            diurnal_amplitude=doc["diurnal_amplitude"],
            diurnal_period=doc["diurnal_period"],
            flash_crowds=tuple(
                FlashCrowd(c["start"], c["duration"], c["multiplier"])
                for c in doc["flash_crowds"]),
            size_alpha=doc["size_alpha"], size_min=doc["size_min"],
            size_max=doc["size_max"],
            model_mix=dict(doc["model_mix"]),
            priority_mix={int(k): v
                          for k, v in doc["priority_mix"].items()},
            deadline=doc["deadline"])
    except (KeyError, TypeError) as exc:
        raise WorkloadError(f"bad trace config: {exc}") from None


def write_trace(path: str, trace: Trace) -> str:
    """Serialize *trace* as ``repro.workload/v1`` JSONL; returns
    *path*.  Deterministic: sorted keys, no timestamps."""
    with open(path, "w", encoding="utf-8") as fh:
        header = {"schema": WORKLOAD_SCHEMA,
                  "config": _config_to_dict(trace.config),
                  "requests": len(trace.requests)}
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        for request in trace.requests:
            fh.write(json.dumps({
                "t": request.t,
                "model": request.model,
                "shape": list(request.shape),
                "priority": request.priority,
                "deadline": request.deadline,
            }, sort_keys=True) + "\n")
    return path


def _validate_request_line(i: int, doc: object) -> TraceRequest:
    if not isinstance(doc, dict):
        raise WorkloadError(f"line {i}: request must be an object")
    t = doc.get("t")
    if not isinstance(t, (int, float)) or t < 0:
        raise WorkloadError(f"line {i}: t must be a number >= 0")
    model = doc.get("model")
    if not isinstance(model, str) or not model:
        raise WorkloadError(f"line {i}: model must be a string")
    shape = doc.get("shape")
    if not (isinstance(shape, list) and len(shape) == 3
            and all(isinstance(v, int) and v > 0 for v in shape)):
        raise WorkloadError(
            f"line {i}: shape must be 3 positive ints")
    priority = doc.get("priority")
    if not isinstance(priority, int) or priority < 0:
        raise WorkloadError(f"line {i}: priority must be an int >= 0")
    deadline = doc.get("deadline")
    if deadline is not None and (
            not isinstance(deadline, (int, float)) or deadline <= 0):
        raise WorkloadError(
            f"line {i}: deadline must be null or a positive number")
    return TraceRequest(t=float(t), model=model,
                        shape=(shape[0], shape[1], shape[2]),
                        priority=priority,
                        deadline=(None if deadline is None
                                  else float(deadline)))


def load_trace(path: str) -> Trace:
    """Read and validate a ``repro.workload/v1`` JSONL trace."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip()]
    if not lines:
        raise WorkloadError("empty trace file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) \
            or header.get("schema") != WORKLOAD_SCHEMA:
        found = (header.get("schema") if isinstance(header, dict)
                 else header)
        raise WorkloadError(
            f"schema must be {WORKLOAD_SCHEMA!r}, got {found!r}")
    config = _config_from_dict(header.get("config", {}))
    requests: List[TraceRequest] = []
    previous = -1.0
    for i, line in enumerate(lines[1:], start=2):
        request = _validate_request_line(i, json.loads(line))
        if request.t < previous:
            raise WorkloadError(
                f"line {i}: arrival times must be nondecreasing")
        previous = request.t
        requests.append(request)
    declared = header.get("requests")
    if isinstance(declared, int) and declared != len(requests):
        raise WorkloadError(
            f"header declares {declared} requests, file has "
            f"{len(requests)}")
    return Trace(config=config, requests=tuple(requests))
