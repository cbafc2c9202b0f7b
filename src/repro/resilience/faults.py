"""Deterministic fault injection for the training runtime.

The paper's scheduler (Section VI, Algorithms 1–3) assumes every task
completes.  Production training runs do not get that luxury: task
bodies crash on bad allocations, hang on contended resources, and
losses go non-finite.  This module provides the *controlled* version of
those failures so the recovery machinery (task retry, the fleet's
heartbeat watchdog, checkpoint rollback, FFT fallback, engine
degradation) can be exercised in tests and chaos jobs.

A :class:`FaultPlan` is a list of :class:`FaultSpec` entries, each
targeting a *family* (the task-name prefix before the first colon —
``fwd``, ``bwd``, ``upd`` — or a synthetic family such as ``loss``,
``fft``, ``engine-start``) at a 1-based *occurrence* count.  Checks are
counted per family, so a plan is fully deterministic: the N-th check of
a family always triggers the same spec, regardless of thread timing.
Probabilistic specs draw from a seeded :class:`random.Random`, so they
too replay identically.

Fault kinds
-----------
``fail``
    :meth:`FaultPlan.check` raises :class:`InjectedFault`.
``hang``
    :meth:`FaultPlan.check` sleeps ``hang_seconds`` (long enough to
    trip a heartbeat watchdog, short enough not to wedge test suites).
``corrupt``
    :meth:`FaultPlan.corrupt` replaces the checked value with NaN
    (``check`` ignores these specs; they only fire on values).

Activation
----------
Injection is **off by default**: the process-global plan is ``None``
and every instrumented call site guards with a single
``active_plan() is not None`` check, so the hot path pays one global
read when no faults are configured.  Enable via the environment
variable ``REPRO_FAULTS`` (parsed lazily on first use) or
programmatically with :func:`install_plan`::

    REPRO_FAULTS="fail:fwd:3,corrupt:loss:2,hang:upd:1,seed=7"

Spec grammar (comma-separated entries):

* ``kind:family[:occurrence[xcount]]`` — trigger on the
  ``occurrence``-th (default 1) through ``occurrence+count-1``-th
  checks of ``family``;
* ``kind:family:~rate`` — trigger each check with probability *rate*
  from the plan's seeded RNG;
* ``seed=N`` — seed for probabilistic specs (default 0);
* ``hang=SECONDS`` — sleep duration of ``hang`` faults (default 30).

Serving-fleet faults
--------------------
Fleet worker processes check the ``serve_worker`` family once per
dispatched request, plus the per-worker family
``serve_worker@<worker_id>`` (built with :func:`worker_family`), so a
plan can kill or wedge one *specific* worker deterministically:

* ``fail:serve_worker:3`` — every worker process crashes on the third
  request it receives (``os._exit``, no goodbye), and so does each
  replacement, on its own third request;
* ``hang:serve_worker@1:1,hang=2`` — worker 1 wedges for 2 s on its
  first request, long enough for the supervisor's heartbeat watchdog
  to declare it hung and reroute its traffic.

Occurrence counts are per *process*: a restarted worker starts its
counts from zero, which is exactly what makes crash loops (and the
restart-storm circuit breaker that quarantines them) reproducible —
``fail:serve_worker@1:1`` kills worker 1's replacement on its first
request too, every time.
"""

from __future__ import annotations

import os
import random
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.observability.metrics import get_registry

__all__ = [
    "CRASH_EXIT_CODE",
    "InjectedFault",
    "FaultSpec",
    "FaultPlan",
    "FaultEvent",
    "active_plan",
    "install_plan",
    "clear_plan",
    "worker_family",
]


def worker_family(family: str, worker_id: int) -> str:
    """The per-worker fault family (``"serve_worker@3"``): lets a plan
    target one specific fleet worker while ``family`` alone targets
    whichever worker checks next."""
    return f"{family}@{worker_id}"

KINDS = ("fail", "hang", "corrupt")

#: Default sleep of a ``hang`` fault — long enough that the fleet's
#: heartbeat watchdog (``serving/supervisor.py``) kills the worker
#: process first, short enough that a hung engine task, which is not
#: recovered in-process, does not outlive a CI job.
DEFAULT_HANG_SECONDS = 30.0


class InjectedFault(RuntimeError):
    """Raised by ``fail`` fault specs.  Retry policies treat it like
    any other transient task failure."""


#: Exit code of a worker process's fault-injected simulated crash
#: (distinguishable from a Python traceback exit in the parent's logs).
CRASH_EXIT_CODE = 73


@dataclass(frozen=True)
class FaultSpec:
    """One fault: *kind* on checks of *family*.

    Exactly one trigger is active: occurrence counting
    (``occurrence``/``count``) or probability (``rate``).
    """

    kind: str
    family: str
    occurrence: int = 1
    count: int = 1
    rate: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(
                f"fault kind must be one of {KINDS}, got {self.kind!r}")
        if not self.family:
            raise ValueError("fault family must be non-empty")
        if self.rate is None:
            if self.occurrence < 1 or self.count < 1:
                raise ValueError(
                    f"occurrence and count must be >= 1 "
                    f"({self.occurrence}, {self.count})")
        elif not 0.0 < self.rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {self.rate}")

    def triggers(self, occurrence: int, rng: random.Random) -> bool:
        """Does this spec fire on the *occurrence*-th check?"""
        if self.rate is not None:
            return rng.random() < self.rate
        return self.occurrence <= occurrence < self.occurrence + self.count

    @classmethod
    def parse(cls, text: str) -> "FaultSpec":
        """Parse one ``kind:family[:trigger]`` entry."""
        parts = text.strip().split(":")
        if len(parts) < 2 or len(parts) > 3:
            raise ValueError(
                f"fault spec must be kind:family[:trigger], got {text!r}")
        kind, family = parts[0].strip(), parts[1].strip()
        occurrence, count, rate = 1, 1, None
        if len(parts) == 3:
            trigger = parts[2].strip()
            if trigger.startswith("~"):
                rate = float(trigger[1:])
            else:
                head, _, tail = trigger.partition("x")
                occurrence = int(head)
                count = int(tail) if tail else 1
        return cls(kind, family, occurrence, count, rate)


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault (for assertions and run summaries)."""

    kind: str
    family: str
    occurrence: int
    name: str = ""


class FaultPlan:
    """A deterministic set of faults to inject, with per-family
    occurrence counting.  Thread-safe; injection sites are never hot
    unless a plan is installed."""

    def __init__(self, specs: List[FaultSpec],
                 hang_seconds: float = DEFAULT_HANG_SECONDS,
                 seed: int = 0) -> None:
        if hang_seconds <= 0:
            raise ValueError(f"hang_seconds must be > 0, got {hang_seconds}")
        self.specs = list(specs)
        self.hang_seconds = float(hang_seconds)
        self.seed = int(seed)
        self._rng = random.Random(self.seed)
        self._lock = threading.Lock()
        self._occurrences: Dict[str, int] = {}
        self._events: List[FaultEvent] = []
        self._m_injected = get_registry().counter("resilience.faults_injected")

    # -- parsing -------------------------------------------------------

    @classmethod
    def from_string(cls, text: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULTS``-style plan string."""
        specs: List[FaultSpec] = []
        hang_seconds = DEFAULT_HANG_SECONDS
        seed = 0
        for entry in text.split(","):
            entry = entry.strip()
            if not entry:
                continue
            if entry.startswith("seed="):
                seed = int(entry[5:])
            elif entry.startswith("hang="):
                hang_seconds = float(entry[5:])
            else:
                specs.append(FaultSpec.parse(entry))
        if not specs:
            raise ValueError(f"fault plan {text!r} contains no fault specs")
        return cls(specs, hang_seconds=hang_seconds, seed=seed)

    @classmethod
    def from_env(cls, environ=None) -> Optional["FaultPlan"]:
        """Plan from ``REPRO_FAULTS``, or None when unset/empty."""
        text = (environ if environ is not None else os.environ).get(
            "REPRO_FAULTS", "").strip()
        return cls.from_string(text) if text else None

    # -- injection sites ----------------------------------------------

    def _match(self, family: str, kinds: Tuple[str, ...]
               ) -> Optional[Tuple[FaultSpec, int]]:
        with self._lock:
            occurrence = self._occurrences.get(family, 0) + 1
            self._occurrences[family] = occurrence
            for spec in self.specs:
                if spec.family != family or spec.kind not in kinds:
                    continue
                if spec.triggers(occurrence, self._rng):
                    return spec, occurrence
            return None

    def _record(self, spec: FaultSpec, occurrence: int, name: str) -> None:
        with self._lock:
            self._events.append(
                FaultEvent(spec.kind, spec.family, occurrence, name))
        self._m_injected.inc()

    def check(self, family: str, name: str = "") -> None:
        """Execution-site hook: may raise :class:`InjectedFault`
        (``fail``) or sleep (``hang``).  ``corrupt`` specs never fire
        here."""
        hit = self._match(family, ("fail", "hang"))
        if hit is None:
            return
        spec, occurrence = hit
        self._record(spec, occurrence, name)
        if spec.kind == "hang":
            time.sleep(self.hang_seconds)
            return
        raise InjectedFault(
            f"injected failure: {family} occurrence {occurrence}"
            + (f" ({name})" if name else ""))

    def corrupt(self, family: str, value: float, name: str = "") -> float:
        """Value-site hook: returns NaN when a ``corrupt`` spec fires,
        *value* untouched otherwise."""
        hit = self._match(family, ("corrupt",))
        if hit is None:
            return value
        spec, occurrence = hit
        self._record(spec, occurrence, name)
        return float("nan")

    # -- introspection -------------------------------------------------

    @property
    def events(self) -> List[FaultEvent]:
        """Faults injected so far (copy)."""
        with self._lock:
            return list(self._events)

    def occurrences(self, family: str) -> int:
        """How many times *family* has been checked."""
        with self._lock:
            return self._occurrences.get(family, 0)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FaultPlan({len(self.specs)} specs, "
                f"{len(self._events)} injected)")


# ---------------------------------------------------------------------------
# Process-global plan.  ``active_plan()`` is the single flag check every
# injection site pays; it resolves REPRO_FAULTS lazily exactly once.
# ---------------------------------------------------------------------------

_plan: Optional[FaultPlan] = None
_env_resolved = False
_install_lock = threading.Lock()


def active_plan() -> Optional[FaultPlan]:
    """The installed fault plan, or None (the default: no injection)."""
    global _plan, _env_resolved
    if not _env_resolved:
        with _install_lock:
            if not _env_resolved:
                env_plan = FaultPlan.from_env()
                if env_plan is not None and _plan is None:
                    _plan = env_plan
                _env_resolved = True
    return _plan


def install_plan(plan: FaultPlan) -> FaultPlan:
    """Install *plan* as the process-global fault plan (tests/chaos
    harnesses); suppresses any pending ``REPRO_FAULTS`` resolution."""
    global _plan, _env_resolved
    with _install_lock:
        _plan = plan
        _env_resolved = True
    return plan


def clear_plan() -> None:
    """Remove the global plan — injection fully off (and REPRO_FAULTS
    will not be re-read this process)."""
    global _plan, _env_resolved
    with _install_lock:
        _plan = None
        _env_resolved = True
