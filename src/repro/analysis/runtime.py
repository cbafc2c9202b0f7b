"""Dynamic concurrency checking — ``REPRO_CHECK=1`` mode.

``repro lint``'s ``guarded-by`` rule checks statically that shared
state is touched only under its documented lock.  What only a run can
see is the order locks are taken in (a potential deadlock hides behind
a lucky schedule).  :class:`CheckedLock` — an instrumented drop-in for
``threading.Lock`` — makes that a *checked invariant*: it maintains a
per-thread held-lock stack and a process-global **lock-order graph**.
An edge ``A -> B`` is recorded the first time any thread acquires ``B``
while holding ``A``; a cycle in the graph is a potential deadlock and
is reported with the acquisition stacks of both conflicting edges (the
happens-before flavour of FastTrack, Flanagan & Freund, PLDI 2009,
collapsed to lock identities).  Recursive acquires and releases of an
unheld lock are reported too.

Reports increment the ``analysis.lock_order_violations`` counter and
land in a programmatic list (:func:`violations`, :func:`assert_clean`)
the ``REPRO_CHECK=1`` CI lane asserts empty.

Activation: the instrumented subsystems call :func:`make_lock` at
*construction* time.  With ``REPRO_CHECK`` unset (the default) it
returns a plain ``threading.Lock``, so the shipped configuration pays
nothing, mirroring ``REPRO_METRICS=0``.
"""

from __future__ import annotations

import os
import sys
import threading
import traceback
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.observability.metrics import get_registry

__all__ = [
    "CheckedLock",
    "DET_THREADS_ENV",
    "ProbeRun",
    "Violation",
    "assert_clean",
    "checking_enabled",
    "disable_checks",
    "enable_checks",
    "make_condition",
    "make_lock",
    "reset_violations",
    "run_determinism_check",
    "violations",
]


@dataclass(frozen=True)
class Violation:
    """One reported concurrency-discipline violation."""

    #: ``"lock-order"``, ``"recursive-acquire"`` or ``"unheld-release"``.
    kind: str
    message: str
    #: Formatted stack of the acquisition that completed the violation.
    stack: str
    #: For lock-order cycles: the formatted stack that created the
    #: conflicting (reverse-direction) edge.
    other_stack: str = ""

    def __str__(self) -> str:
        text = f"[{self.kind}] {self.message}\n--- stack ---\n{self.stack}"
        if self.other_stack:
            text += f"--- conflicting stack ---\n{self.other_stack}"
        return text


def _capture_stack() -> str:
    """The current stack, minus the two innermost frames (this module's)."""
    frames = traceback.format_stack()[:-2]
    return "".join(frames[-8:])


class _HeldStack(threading.local):
    """Per-thread stack of currently-held :class:`CheckedLock` objects."""

    def __init__(self) -> None:
        self.locks: List["CheckedLock"] = []


class _CheckState:
    """Process-global state for one checking session."""

    def __init__(self) -> None:
        self.held = _HeldStack()
        # (from_name, to_name) -> (stack, thread name); first sighting.
        self.edges: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self.adjacency: Dict[str, Set[str]] = {}
        self.graph_lock = threading.Lock()
        self.violations: List[Violation] = []
        self.violations_lock = threading.Lock()
        self.m_lock_order = get_registry().counter(
            "analysis.lock_order_violations")

    # -- reporting -----------------------------------------------------

    def report(self, violation: Violation) -> None:
        with self.violations_lock:
            self.violations.append(violation)
        self.m_lock_order.inc()
        print(f"REPRO_CHECK violation: {violation}", file=sys.stderr)

    # -- lock-order graph ----------------------------------------------

    def record_edge(self, held: "CheckedLock", acquiring: "CheckedLock",
                    stack: str) -> None:
        a, b = held.order_name, acquiring.order_name
        if a == b:
            # Same-name nesting across *instances* (e.g. two queues) is
            # hierarchical by construction here; a same-instance nest is
            # reported separately as recursive-acquire.
            return
        key = (a, b)
        with self.graph_lock:
            if key in self.edges:
                return
            self.edges[key] = (stack, threading.current_thread().name)
            self.adjacency.setdefault(a, set()).add(b)
            cycle = self._find_path(b, a)
        if cycle is not None:
            # The reverse-direction path exists: taking a -> b closes a
            # cycle.  Attach the stack of the first edge on that path.
            first_edge = (cycle[0], cycle[1])
            other_stack, other_thread = self.edges.get(first_edge, ("", "?"))
            self.report(Violation(
                kind="lock-order",
                message=(
                    f"lock-order cycle: acquired {b!r} while holding {a!r}, "
                    f"but the reverse order {' -> '.join(cycle)} was "
                    f"established by thread {other_thread!r} — potential "
                    f"deadlock"),
                stack=stack,
                other_stack=other_stack,
            ))

    def _find_path(self, start: str, goal: str) -> Optional[List[str]]:
        """DFS in the edge graph; returns the node path or None.

        Called with ``graph_lock`` held.
        """
        stack: List[Tuple[str, List[str]]] = [(start, [start])]
        seen: Set[str] = set()
        while stack:
            node, path = stack.pop()
            if node == goal:
                return path
            if node in seen:
                continue
            seen.add(node)
            for nxt in self.adjacency.get(node, ()):
                stack.append((nxt, path + [nxt]))
        return None


def _env_enabled() -> bool:
    return os.environ.get("REPRO_CHECK", "0").strip().lower() not in (
        "", "0", "false", "off", "no")


_state: Optional[_CheckState] = _CheckState() if _env_enabled() else None

#: Shared state for CheckedLocks constructed directly while global
#: checking is off (unit tests): they must still see one held stack.
_standalone_state: Optional[_CheckState] = None
_standalone_guard = threading.Lock()


def _resolve_state(state: Optional[_CheckState]) -> _CheckState:
    global _standalone_state
    if state is not None:
        return state
    if _state is not None:
        return _state
    with _standalone_guard:
        if _standalone_state is None:
            _standalone_state = _CheckState()
        return _standalone_state


class CheckedLock:
    """An instrumented non-reentrant lock (``threading.Lock`` semantics).

    Maintains the per-thread held stack, feeds the lock-order graph,
    and reports (then raises on) recursive acquisition — which on the
    plain lock would be a silent self-deadlock.  Works as the lock of a
    ``threading.Condition``.
    """

    __slots__ = ("order_name", "_inner", "_state")

    def __init__(self, name: str,
                 state: Optional[_CheckState] = None) -> None:
        #: Site label; cycle detection aggregates instances by it.
        self.order_name = name
        self._inner = threading.Lock()
        self._state = _resolve_state(state)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        state = self._state
        held = state.held.locks
        if self in held:
            if not blocking:
                # threading.Condition._is_owned probes with
                # acquire(False); a held lock simply reports busy.
                return False
            violation = Violation(
                kind="recursive-acquire",
                message=(f"thread {threading.current_thread().name!r} "
                         f"re-acquired non-reentrant lock "
                         f"{self.order_name!r} it already holds — "
                         f"certain deadlock"),
                stack=_capture_stack(),
            )
            state.report(violation)
            raise RuntimeError(violation.message)
        if held:
            stack = _capture_stack()
            for other in held:
                state.record_edge(other, self, stack)
        acquired = self._inner.acquire(  # lint: disable=raw-acquire
            blocking, timeout)
        if acquired:
            held.append(self)
        return acquired

    def release(self) -> None:
        state = self._state
        held = state.held.locks
        if self in held:
            # Remove the most recent acquisition (Condition.wait may
            # interleave probe acquisitions, so not necessarily top).
            for i in range(len(held) - 1, -1, -1):
                if held[i] is self:
                    del held[i]
                    break
        else:
            state.report(Violation(
                kind="unheld-release",
                message=(f"thread {threading.current_thread().name!r} "
                         f"released lock {self.order_name!r} it does "
                         f"not hold"),
                stack=_capture_stack(),
            ))
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()  # lint: disable=raw-acquire

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CheckedLock({self.order_name!r}, locked={self.locked()})"


LockLike = Union[threading.Lock, CheckedLock]


# ---------------------------------------------------------------------------
# Public API used by the instrumented subsystems.
# ---------------------------------------------------------------------------


def checking_enabled() -> bool:
    """True when ``REPRO_CHECK`` mode is active (env or programmatic)."""
    return _state is not None


def enable_checks() -> None:
    """Activate checking (tests; the env var does this at import)."""
    global _state
    if _state is None:
        _state = _CheckState()


def disable_checks() -> None:
    """Deactivate checking and drop all recorded state."""
    global _state
    _state = None


def make_lock(name: str) -> LockLike:
    """A lock for the site *name*: plain when checking is off,
    :class:`CheckedLock` when on.  Call at construction time."""
    if _state is None:
        return threading.Lock()
    return CheckedLock(name, state=_state)


def make_condition(name: str) -> threading.Condition:
    """A condition over :func:`make_lock` of the same *name*."""
    return threading.Condition(make_lock(name))  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Introspection for tests and the CI lane.
# ---------------------------------------------------------------------------


def violations() -> List[Violation]:
    """All violations reported since checks were enabled/reset."""
    state = _state
    if state is None:
        return []
    with state.violations_lock:
        return list(state.violations)


def reset_violations() -> None:
    """Clear recorded violations (the lock-order graph survives)."""
    state = _state
    if state is None:
        return
    with state.violations_lock:
        state.violations.clear()


def assert_clean() -> None:
    """Raise ``AssertionError`` listing violations, if any were seen."""
    seen = violations()
    if seen:
        summary = "\n\n".join(str(v) for v in seen)
        raise AssertionError(
            f"{len(seen)} concurrency violation(s) detected under "
            f"REPRO_CHECK:\n\n{summary}")


def lock_order_edges() -> Dict[Tuple[str, str], str]:
    """The observed lock-order graph: edge -> establishing thread."""
    state = _state
    if state is None:
        return {}
    with state.graph_lock:
        return {edge: thread for edge, (_, thread) in state.edges.items()}


# ---------------------------------------------------------------------------
# Determinism sanitizer — the runtime half of `repro lint --rules
# determinism` (docs/static_analysis.md "Determinism checker").
# ---------------------------------------------------------------------------

#: Environment variable through which the sanitizer perturbs the
#: probe's worker counts (read by ``repro check-determinism --probe``).
DET_THREADS_ENV = "REPRO_DET_THREADS"


@dataclass(frozen=True)
class ProbeRun:
    """One probe execution under a specific perturbation."""

    hash_seed: int
    threads: int
    #: Ordered ``stage -> digest`` pairs emitted by the probe.
    digests: Tuple[Tuple[str, str], ...]


def _parse_probe_output(text: str) -> Tuple[Tuple[str, str], ...]:
    """Extract ordered ``(stage, digest)`` pairs from probe stdout.

    The probe emits one JSON object per line (``{"stage": ...,
    "digest": ...}``); any other line (progress noise from the
    subsystems) is ignored.
    """
    import json

    pairs: List[Tuple[str, str]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line.startswith("{"):
            continue
        try:
            doc = json.loads(line)
        except ValueError:
            continue
        if not isinstance(doc, dict):
            continue
        stage = doc.get("stage")
        digest = doc.get("digest")
        if isinstance(stage, str) and isinstance(digest, str):
            pairs.append((stage, digest))
    return tuple(pairs)


def _run_probe(argv: List[str], hash_seed: int, threads: int,
               timeout: float) -> ProbeRun:
    import subprocess

    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed)
    env[DET_THREADS_ENV] = str(threads)
    proc = subprocess.run(argv, capture_output=True, text=True,
                          env=env, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(
            f"determinism probe {argv!r} exited "
            f"{proc.returncode}:\n{proc.stderr}")
    digests = _parse_probe_output(proc.stdout)
    if not digests:
        raise RuntimeError(
            f"determinism probe {argv!r} emitted no stage digests; "
            f"stdout was:\n{proc.stdout}")
    return ProbeRun(hash_seed=hash_seed, threads=threads,
                    digests=digests)


def run_determinism_check(
        probe_argv: Optional[List[str]] = None,
        seeds: Tuple[int, int] = (0, 4242),
        threads: Tuple[int, int] = (1, 2),
        timeout: float = 900.0) -> Dict[str, object]:
    """Run the probe twice under perturbed hash seeds and thread
    schedules and diff the stage digests.

    The bitwise-reproducibility contract says every stage digest —
    the trained ``state_digest``, the stitched serving volume, the
    loadtest report bytes — is a function of the *seeds*, never of
    ``PYTHONHASHSEED`` (set/dict iteration order) or the worker
    schedule.  A stage whose digest moves between the two runs has
    leaked one of those into its arithmetic or serialization; the
    returned document names the first such stage (divergence
    provenance) so the offender is a grep away.

    *probe_argv* overrides the probe command (tests substitute a fake
    probe); the default runs ``repro check-determinism --probe`` under
    the current interpreter.
    """
    argv = probe_argv if probe_argv is not None else [
        sys.executable, "-m", "repro", "check-determinism", "--probe"]
    reg = get_registry()
    m_runs = reg.counter("analysis.determinism.probe_runs")
    m_stages = reg.counter("analysis.determinism.stages")
    m_div = reg.counter("analysis.determinism.divergences")

    runs: List[ProbeRun] = []
    for hash_seed, n_threads in zip(seeds, threads):
        runs.append(_run_probe(argv, hash_seed, n_threads, timeout))
        m_runs.inc()

    a, b = runs[0], runs[1]
    stages_a = [stage for stage, _ in a.digests]
    stages_b = [stage for stage, _ in b.digests]
    divergences: List[Dict[str, str]] = []
    if stages_a != stages_b:
        divergences.append({
            "stage": "<stage-list>",
            "run_a": ",".join(stages_a),
            "run_b": ",".join(stages_b),
        })
    else:
        for (stage, digest_a), (_, digest_b) in zip(a.digests, b.digests):
            m_stages.inc()
            if digest_a != digest_b:
                divergences.append({
                    "stage": stage,
                    "run_a": digest_a,
                    "run_b": digest_b,
                })
    for _ in divergences:
        m_div.inc()

    return {
        "schema": "repro.determinism-check/v1",
        "matched": not divergences,
        "stages": stages_a,
        "runs": [
            {"hash_seed": run.hash_seed, "threads": run.threads,
             "digests": {stage: digest for stage, digest in run.digests}}
            for run in runs
        ],
        "first_divergence": divergences[0] if divergences else None,
        "divergences": divergences,
    }
