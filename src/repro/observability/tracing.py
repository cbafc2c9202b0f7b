"""Hierarchical, request-scoped tracing with context propagation.

"What did each worker run when" is half of a trace; the open ROADMAP
items (per-layer algorithm selection, autoscaling) also need *causal*
structure: which request did a conv task belong to, how long did the
request wait in admission before its first tile ran, which training
round produced this worker's gradient pass.  This module records both
in one place — every engine task is a span (``worker``, ``queue_wait``
and status attached) inside the tree of the request or round that
spawned it:

* :class:`Span` — one named interval with a ``trace_id`` (the request /
  round it belongs to), a ``span_id``, and a ``parent_id`` forming a
  tree;
* :class:`SpanContext` — the picklable ``(trace_id, span_id)`` pair
  that crosses thread, engine-task and process boundaries.  A task
  captures the creating thread's context at construction time; a
  spawned worker process receives the coordinator's context in the
  round message and ships its spans back over the pipe;
* :class:`Tracer` — the process-global span sink: a bounded ring
  buffer, a thread-local context stack, and exporters (Chrome trace,
  span-tree text view, per-process trace files that merge onto a
  shared timeline);
* :class:`FlightRecorder` — a small always-cheap ring of the most
  recent spans and notes, dumped to disk when something goes wrong
  (task failure, FFT degradation, worker death) so the moments *before*
  a crash are inspectable after it.

Tracing is **off by default**: every entry point checks
``tracer.enabled`` first, so the disabled fast path is one attribute
read and a branch.  Enable with ``REPRO_TRACING=1`` or
``get_tracer().enable()``.  Enabled, a span is one slotted handle
pushed on the thread's context stack (where an adopted remote parent
is its :class:`SpanContext`); closing it appends one plain record, a
tuple in :class:`Span` field order, to the ring and the flight ring.
That costs ~3us in a tight loop and ~6-12us between the conv passes
of a training step; CI's trace-smoke lane holds the whole to 5% of a
step plus 1 ms.

Timestamps are *epoch-aligned monotonic*: each process captures one
``(wall, monotonic)`` origin pair and records spans at
``wall_origin + (monotonic() - mono_origin)``.  Within a process that
clock never goes backwards; across processes on one host the traces
align to wall-clock accuracy, which is what lets ``repro trace
--merge`` place coordinator and worker spans on one timeline.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field, fields
from typing import (
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

from repro.analysis.runtime import make_lock
from repro.observability.metrics import get_registry

__all__ = [
    "Span",
    "SpanContext",
    "Tracer",
    "FlightRecorder",
    "get_tracer",
    "set_tracer",
    "current_context",
    "flight_note",
    "flight_dump",
    "task_family",
    "TaskSummary",
    "summarize_task_spans",
    "spans_to_chrome_trace",
    "write_chrome_trace",
    "render_span_tree",
    "write_trace_file",
    "read_trace_file",
    "merge_trace_files",
]

#: Schema tag of per-process trace files (``write_trace_file``).
TRACE_SCHEMA = "repro.trace/v1"

#: Default ring-buffer capacity of the tracer (spans) and flight
#: recorder (events).  Spans beyond the cap evict the oldest —
#: ``tracing.dropped`` counts them.
DEFAULT_MAX_SPANS = 100_000
DEFAULT_FLIGHT_EVENTS = 512


def task_family(name: str) -> str:
    """Task-name prefix before the first colon ('fwd', 'upd', …): the
    label of the engine's per-family counters and the category of a
    task span."""
    return name.partition(":")[0] or "anonymous"


class SpanContext(NamedTuple):
    """The propagatable identity of a span: ``(trace_id, span_id)``.

    Plain strings, so a context pickles across the spawn boundary and
    serialises into HTTP headers (``X-Trace-Id``).
    """

    trace_id: str
    span_id: str


@dataclass(slots=True)
class Span:
    """One recorded interval in a trace tree."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    name: str
    category: str
    start: float
    end: float
    #: Which process recorded the span ("coordinator", "worker-1",
    #: "serve", ...) — the stable pid axis of merged Chrome traces.
    process: str
    #: Native thread id within the recording process.
    thread: int
    status: str = "ok"
    attrs: Dict[str, object] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in _SPAN_FIELDS}

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        return cls(*_record_from_dict(payload))


#: Span field names, in order: the layout of a stored span record.
_SPAN_FIELDS = tuple(f.name for f in fields(Span))


class _ActiveSpan:
    """Handle for an in-flight span opened by :meth:`Tracer.span`.

    Opening it resolves the parent and allocates the id against the
    opening thread's context stack; entering pushes it there, and
    exiting pops it and stores its record.  ``set`` attaches attributes
    and ``fail`` marks the error status before the span closes.
    """

    __slots__ = ("_tracer", "_stack", "trace_id", "span_id", "parent_id",
                 "name", "category", "start", "attrs", "status")

    def __init__(self, tracer: "Tracer", name: str, category: str,
                 parent: Optional[SpanContext], trace_id: Optional[str],
                 attrs: Dict[str, object]) -> None:
        stack = tracer._tls.stack
        if parent is None and stack:
            parent = stack[-1]  # an open span or an adopted SpanContext
        if parent is not None:
            self.trace_id = parent.trace_id if trace_id is None else trace_id
            self.parent_id = parent.span_id
        else:
            self.trace_id = (trace_id if trace_id is not None
                             else tracer.new_trace_id())
            self.parent_id = None
        self._tracer = tracer
        self._stack = stack
        self.span_id = tracer._span_id_prefix + str(next(tracer._ids))
        self.name = name
        self.category = category
        self.attrs = attrs
        self.status = "ok"
        self.start = time.monotonic() + tracer._offset

    @property
    def context(self) -> SpanContext:
        return SpanContext(self.trace_id, self.span_id)

    def set(self, **attrs: object) -> "_ActiveSpan":
        self.attrs.update(attrs)
        return self

    def fail(self, status: str = "error") -> None:
        self.status = status

    def __enter__(self) -> "_ActiveSpan":
        self._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None and self.status == "ok":
            self.status = "error"
            self.attrs.setdefault("error", exc_type.__name__)
        stack = self._stack
        if stack and stack[-1] is self:
            stack.pop()
        elif not _unwind(stack, self):
            return
        tracer = self._tracer
        tracer._store((self.trace_id, self.span_id, self.parent_id,
                       self.name, self.category, self.start,
                       time.monotonic() + tracer._offset, tracer.process,
                       threading.get_ident(), self.status, self.attrs))


def _unwind(stack: list, entry: object) -> bool:
    """Pop *stack* down to and including *entry* after an unbalanced
    exit (a span closed out of order), closing the open spans it skips
    so nothing leaks; False when *entry* was not on the stack."""
    while stack:
        top = stack[-1]
        if top is entry:
            stack.pop()
            return True
        if top.__class__ is _ActiveSpan:
            top.__exit__(None, None, None)  # on top: pops and stores
        else:
            stack.pop()
    return False


class _NoopSpan:
    """The disabled-tracer stand-in: absorbs the whole span API."""

    __slots__ = ()

    context: Optional[SpanContext] = None
    span_id = ""
    trace_id = ""

    def set(self, **attrs: object) -> "_NoopSpan":
        return self

    def fail(self, status: str = "error") -> None:
        pass

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


class _ContextStacks(threading.local):
    """Per-thread context stack: the open spans and adopted remote
    parents (:class:`SpanContext`), innermost last."""

    def __init__(self) -> None:
        self.stack: list = []


def _record_from_dict(payload: dict, process: Optional[str] = None
                      ) -> tuple:
    """The stored record of a span's dict form: a tuple in
    :class:`Span` field order (*process* overrides the payload's)."""
    return (str(payload["trace_id"]), str(payload["span_id"]),
            payload.get("parent_id"), str(payload["name"]),
            str(payload.get("category", "")), float(payload["start"]),
            float(payload["end"]),
            process if process is not None
            else str(payload.get("process", "unknown")),
            int(payload.get("thread", 0)), str(payload.get("status", "ok")),
            dict(payload.get("attrs", {})))


class Tracer:
    """Process-global span collector with a thread-local context stack.

    Every mutation is gated on :attr:`enabled`; a disabled tracer costs
    one branch per instrumentation site.  Spans are kept in a bounded
    ring (oldest evicted, counted by ``tracing.dropped``), so tracing a
    long-lived server cannot grow without bound.  The ring holds plain
    records, tuples in :class:`Span` field order; a :class:`Span` is
    built only when a trace is read.
    """

    def __init__(self, enabled: Optional[bool] = None,
                 process: Optional[str] = None,
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        if enabled is None:
            enabled = os.environ.get("REPRO_TRACING", "0").lower() in (
                "1", "true", "on", "yes")
        self.enabled = bool(enabled)
        self.process = process if process is not None \
            else f"pid-{os.getpid()}"
        self._lock = make_lock("observability.tracer")
        # The ring: a store appends without the lock (deque.append is
        # atomic); records leave only under it, evicted past
        # _max_spans or taken by clear/drain.
        self._spans: Deque[tuple] = deque()
        self._max_spans = max_spans
        self._tls = _ContextStacks()
        self._ids = itertools.count(1)
        # Epoch-aligned monotonic origin (see module docstring).
        self._origin_wall = time.time()
        self._offset = self._origin_wall - time.monotonic()
        # Id pieces precomputed once: id generation is on the per-span
        # hot path.
        self._trace_id_fix = (
            f"t-{os.getpid():x}-",
            f"-{int(self._origin_wall * 1e3) & 0xffffff:x}")
        self._span_id_prefix = self.process + ":"
        reg = get_registry()
        self._m_spans = reg.counter("tracing.spans")
        self._m_dropped = reg.counter("tracing.dropped")
        # Records that left the ring, and foreign ones ingested into
        # it: with its length they count the spans recorded, so
        # recording one takes no lock and never touches the registry
        # (_sync_metrics folds the counts in).
        self._dropped = 0     # guarded-by: _lock
        self._taken = 0       # guarded-by: _lock
        self._ingested = 0    # guarded-by: _lock
        self._synced = 0
        self._synced_dropped = 0
        self.flight: Optional[FlightRecorder] = None

    # -- lifecycle -----------------------------------------------------

    def enable(self) -> "Tracer":
        self.enabled = True
        return self

    def disable(self) -> None:
        self.enabled = False

    def set_process(self, label: str) -> None:
        """Relabel this process ("coordinator", "worker-3", ...)."""
        self.process = str(label)
        self._span_id_prefix = self.process + ":"

    def clear(self) -> None:
        self._take()

    # -- time ----------------------------------------------------------

    def now(self) -> float:
        """The tracer clock: epoch-aligned monotonic seconds."""
        return time.monotonic() + self._offset

    def from_monotonic(self, t: float) -> float:
        """Map a raw ``time.monotonic()`` stamp onto the tracer clock."""
        return t + self._offset

    # -- context stack -------------------------------------------------

    def current_context(self) -> Optional[SpanContext]:
        """The active span/parent context on this thread, or None."""
        if not self.enabled:
            return None
        stack = self._tls.stack
        if not stack:
            return None
        top = stack[-1]
        return SpanContext(top.trace_id, top.span_id)

    @contextlib.contextmanager
    def activate(self, ctx: Optional[SpanContext]) -> Iterator[None]:
        """Adopt *ctx* (e.g. a pickled remote parent) as the current
        context for the duration of the returned context manager."""
        if not self.enabled or ctx is None:
            yield
            return
        entry = SpanContext(*ctx)
        stack = self._tls.stack
        stack.append(entry)
        try:
            yield
        finally:
            _unwind(stack, entry)

    # -- span creation -------------------------------------------------

    def new_trace_id(self) -> str:
        """A fresh trace id, unique across processes on this host."""
        head, tail = self._trace_id_fix
        return head + format(next(self._ids), "x") + tail

    def span(self, name: str, category: str = "",
             parent: Optional[SpanContext] = None,
             trace_id: Optional[str] = None, **attrs: object):
        """Open a span as a context manager.

        The parent defaults to the thread's current context; with no
        parent and no *trace_id* a fresh trace is started (the span is
        a root).
        """
        if not self.enabled:
            return _NOOP_SPAN
        # **attrs is already a fresh dict owned by this call.
        return _ActiveSpan(self, name, category, parent, trace_id, attrs)

    def record(self, name: str, start: float, end: float,
               category: str = "",
               parent: Optional[SpanContext] = None,
               trace_id: Optional[str] = None,
               context: Optional[SpanContext] = None,
               status: str = "ok", **attrs: object
               ) -> Optional[SpanContext]:
        """Record a completed span directly (for intervals measured
        outside the context-manager discipline, e.g. a request's
        admission wait, whose start and end happen on different
        threads).  *start*/*end* are tracer-clock seconds
        (:meth:`now` / :meth:`from_monotonic`)."""
        if not self.enabled:
            return None
        if context is None:
            context = self.make_context(
                trace_id if trace_id is not None
                else parent.trace_id if parent is not None else None)
        tid, span_id = context
        self._store((tid, span_id,
                     parent.span_id if parent is not None else None,
                     name, category, float(start), float(end),
                     self.process, threading.get_ident(), status, attrs))
        return SpanContext(tid, span_id)

    def make_context(self, trace_id: Optional[str] = None) -> SpanContext:
        """Allocate a context (e.g. a request root) whose span body
        will be recorded later via ``record(context=...)``."""
        tid = trace_id if trace_id else self.new_trace_id()
        return SpanContext(tid, self._span_id_prefix + str(next(self._ids)))

    def _store(self, record: tuple) -> None:
        spans = self._spans
        spans.append(record)
        if len(spans) > self._max_spans:
            self._evict()
        flight = self.flight
        if flight is not None:
            flight.record_span(record)

    def _evict(self) -> None:
        """Drop the oldest records past the ring's capacity."""
        with self._lock:
            spans = self._spans
            while len(spans) > self._max_spans:
                spans.popleft()
                self._dropped += 1

    def _take(self) -> List[tuple]:
        """Remove and return every buffered record."""
        with self._lock:
            spans = self._spans
            # popleft, not clear(): a racing store keeps its record.
            records = [spans.popleft() for _ in range(len(spans))]
            self._taken += len(records)
        return records

    def _sync_metrics(self) -> None:
        """Fold the spans recorded and dropped since the last call into
        the registry counters.  Runs on every read-side API (and as a
        registry read hook), so snapshots stay accurate while recording
        a span never touches the metrics registry."""
        with self._lock:
            recorded = (len(self._spans) + self._dropped + self._taken
                        - self._ingested)
            d_spans, self._synced = recorded - self._synced, recorded
            d_dropped = self._dropped - self._synced_dropped
            self._synced_dropped = self._dropped
        if d_spans:
            self._m_spans.inc(d_spans)
        if d_dropped:
            self._m_dropped.inc(d_dropped)

    # -- ingestion / export --------------------------------------------

    def ingest(self, payloads: Iterable[dict],
               process: Optional[str] = None) -> int:
        """Adopt foreign spans (shipped from a worker process or read
        from a trace file); returns the count ingested."""
        records = [_record_from_dict(p, process) for p in payloads]
        with self._lock:
            self._ingested += len(records)
            self._spans.extend(records)
        self._evict()
        return len(records)

    def spans(self) -> List[Span]:
        self._sync_metrics()
        with self._lock:
            records = list(self._spans)
        return [Span(*r) for r in records]

    def drain(self) -> List[dict]:
        """Remove and return all buffered spans as dicts (the worker →
        coordinator shipping payload)."""
        return [Span(*r).to_dict() for r in self._take()]

    def __len__(self) -> int:
        self._sync_metrics()
        with self._lock:
            return len(self._spans)

    @property
    def dropped(self) -> int:
        """Spans evicted from the full ring so far."""
        with self._lock:
            return self._dropped


# ---------------------------------------------------------------------------
# Flight recorder
# ---------------------------------------------------------------------------


class FlightRecorder:
    """A bounded ring of recent spans and notes, dumped on trouble.

    The recorder is cheap enough to leave on whenever tracing is on
    (one deque append per completed span).  :meth:`dump` writes the
    ring plus a metrics snapshot; :func:`flight_dump` is the trigger
    hook instrumented subsystems call on crash/degradation — it writes
    into ``REPRO_FLIGHT_DIR`` when that is set and is a no-op
    otherwise, so production opt-in is one environment variable.
    """

    def __init__(self, capacity: int = DEFAULT_FLIGHT_EVENTS) -> None:
        # deque appends are atomic under the GIL; no lock needed on the
        # hot path.
        self._events: Deque[object] = deque(maxlen=capacity)
        #: The tracer's per-span hook: the ring's own append (records
        #: are serialised lazily, in events()).
        self.record_span = self._events.append
        self._dump_lock = make_lock("observability.flight")
        self.dumps = 0

    def note(self, message: str, **attrs: object) -> None:
        self._events.append({"kind": "note", "time": time.time(),
                             "message": str(message), "attrs": attrs})

    def events(self) -> List[dict]:
        while True:  # another thread may append mid-copy
            try:
                ring = list(self._events)
                break
            except RuntimeError:
                continue
        return [e if isinstance(e, dict)
                else {"kind": "span", **Span(*e).to_dict()}
                for e in ring]

    def clear(self) -> None:
        self._events.clear()

    def dump(self, path: str, reason: str = "manual") -> str:
        """Write the ring (plus a metrics snapshot) to *path*."""
        events = self.events()
        try:
            get_tracer()._sync_metrics()
            snapshot = get_registry().snapshot()
        except Exception:  # pragma: no cover - metrics must not block
            snapshot = {}
        doc = {
            "schema": "repro.flight/v1",
            "reason": reason,
            "time": time.time(),
            "process": get_tracer().process,
            "pid": os.getpid(),
            "events": events,
            "metrics": snapshot,
        }
        payload = json.dumps(doc)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
        with self._dump_lock:
            self.dumps += 1
        get_registry().counter("flight.dumps").inc()
        return path


# ---------------------------------------------------------------------------
# Process-global instances
# ---------------------------------------------------------------------------

_global_tracer = Tracer()
_global_flight = FlightRecorder()
_global_tracer.flight = _global_flight


def _sync_global_tracer_metrics() -> None:
    _global_tracer._sync_metrics()


# Fold deferred span tallies in whenever the registry is read, so
# exporters (snapshot, /metrics) see up-to-date tracing counters.
get_registry().add_read_hook(_sync_global_tracer_metrics)


def get_tracer() -> Tracer:
    """The process-global tracer instrumented code defaults to."""
    return _global_tracer


def set_tracer(tracer: Tracer) -> Tracer:
    """Swap the global tracer (tests); returns the previous one."""
    global _global_tracer
    previous = _global_tracer
    if tracer.flight is None:
        tracer.flight = _global_flight
    _global_tracer = tracer
    return previous


def current_context() -> Optional[SpanContext]:
    """The calling thread's active span context (None when tracing is
    off or no span is open) — the one-liner task constructors use."""
    tracer = _global_tracer
    if not tracer.enabled:
        return None
    return tracer.current_context()


def flight_note(message: str, **attrs: object) -> None:
    """Append a note to the flight ring (cheap; always available)."""
    _global_flight.note(message, **attrs)


def flight_dump(reason: str, directory: Optional[str] = None
                ) -> Optional[str]:
    """Crash/degradation trigger: dump the flight ring.

    Writes into *directory* or ``$REPRO_FLIGHT_DIR``; with neither set
    this is a no-op returning None (the production default — recording
    stays cheap, dumping is opt-in).
    """
    target = directory if directory is not None \
        else os.environ.get("REPRO_FLIGHT_DIR")
    if not target:
        return None
    safe = "".join(c if c.isalnum() or c in "-._" else "-"
                   for c in reason)[:80]
    path = os.path.join(
        target, f"flight-{os.getpid()}-{safe or 'event'}.json")
    try:
        return _global_flight.dump(path, reason=reason)
    except OSError:  # pragma: no cover - dump target unwritable
        return None


# ---------------------------------------------------------------------------
# Exporters
# ---------------------------------------------------------------------------


def _stable_pids(processes: Sequence[str]) -> Dict[str, int]:
    """Deterministic pid assignment for merged traces: the coordinator
    is pid 0, ``worker-N`` is pid N, anything else gets the next free
    pid in sorted order."""
    pids: Dict[str, int] = {}
    leftovers = []
    for process in sorted(set(processes)):
        if process in ("coordinator", "serve", "main"):
            pids[process] = 0
        elif process.startswith("worker-"):
            suffix = process.rsplit("-", 1)[-1]
            if suffix.isdigit():
                pids[process] = int(suffix)
            else:
                leftovers.append(process)
        else:
            leftovers.append(process)
    used = set(pids.values())
    next_pid = 0
    for process in leftovers:
        while next_pid in used:
            next_pid += 1
        pids[process] = next_pid
        used.add(next_pid)
    return pids


def spans_to_chrome_trace(spans: Sequence[Span]) -> dict:
    """Render spans as Chrome Trace Event JSON (complete events).

    One trace *process* per recording process (stable pids: see
    :func:`_stable_pids`), one trace *thread* per native thread, and
    trace/span/parent ids attached as args so the viewer's detail pane
    shows the causal identity of every slice.
    """
    if not spans:
        return {"traceEvents": [], "displayTimeUnit": "ms"}
    t0 = min(s.start for s in spans)
    pids = _stable_pids([s.process for s in spans])
    events: List[dict] = []
    for process, pid in sorted(pids.items(), key=lambda kv: kv[1]):
        events.append({"name": "process_name", "ph": "M", "pid": pid,
                       "args": {"name": process}})
    threads: Dict[Tuple[str, int], int] = {}
    for span in spans:
        key = (span.process, span.thread)
        if key not in threads:
            tid = len([k for k in threads if k[0] == span.process])
            threads[key] = tid
            events.append({
                "name": "thread_name", "ph": "M",
                "pid": pids[span.process], "tid": tid,
                "args": {"name": f"{span.process}/t{tid}"}})
    for span in spans:
        event = {
            "name": span.name,
            "cat": span.category or "span",
            "ph": "X",
            "pid": pids[span.process],
            "tid": threads[(span.process, span.thread)],
            "ts": (span.start - t0) * 1e6,
            "dur": max(span.duration, 0.0) * 1e6,
            "args": {
                "trace_id": span.trace_id,
                "span_id": span.span_id,
                "parent_id": span.parent_id,
                "status": span.status,
                **span.attrs,
            },
        }
        if span.status != "ok":
            event["cname"] = "terrible"
        events.append(event)
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: Sequence[Span], path: str) -> str:
    """Write :func:`spans_to_chrome_trace` JSON to *path* (load it in
    ``chrome://tracing`` or https://ui.perfetto.dev); returns *path*."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(spans_to_chrome_trace(spans), fh)
    return path


class TaskSummary(NamedTuple):
    """Aggregates over the task spans of one trace — the quantities
    the paper's Section VIII discussion is about."""

    tasks: int
    #: Seconds from the first task's start to the last task's end.
    span: float
    #: Busy seconds per ``(process, worker)``.
    busy_per_worker: Dict[Tuple[str, int], float]
    time_per_family: Dict[str, float]
    #: Attempts that did not end ``ok`` (still counted in ``tasks``).
    failed: int
    mean_queue_wait: float
    #: Busy worker-time divided by (span x workers).
    utilization: float

    def __str__(self) -> str:
        return (f"{self.tasks} tasks over {self.span:.3f}s on "
                f"{len(self.busy_per_worker)} worker(s); "
                f"utilization {self.utilization:.0%}, mean queue wait "
                f"{self.mean_queue_wait * 1e3:.2f}ms, {self.failed} failed")


def summarize_task_spans(spans: Sequence[Span]) -> TaskSummary:
    """Summarise the engine-task spans among *spans* (those carrying
    ``worker``; request, round and stage spans are skipped)."""
    tasks = [s for s in spans if "worker" in s.attrs]
    if not tasks:
        return TaskSummary(0, 0.0, {}, {}, 0, 0.0, 0.0)
    span = max(s.end for s in tasks) - min(s.start for s in tasks)
    busy: Dict[Tuple[str, int], float] = {}
    families: Dict[str, float] = {}
    for s in tasks:
        key = (s.process, s.attrs["worker"])
        busy[key] = busy.get(key, 0.0) + s.duration
        families[s.category] = families.get(s.category, 0.0) + s.duration
    wait = sum(s.attrs.get("queue_wait", 0.0) for s in tasks)
    return TaskSummary(
        tasks=len(tasks), span=span, busy_per_worker=busy,
        time_per_family=families,
        failed=sum(s.status != "ok" for s in tasks),
        mean_queue_wait=wait / len(tasks),
        utilization=sum(busy.values()) / (span * len(busy)) if span else 0.0)


def render_span_tree(spans: Sequence[Span],
                     trace_id: Optional[str] = None) -> str:
    """Text view of span trees — one indented block per trace.

    Orphans (parents evicted from the ring or recorded in a process
    whose spans were lost) are promoted to roots, so a tree is always
    printable."""
    selected = [s for s in spans
                if trace_id is None or s.trace_id == trace_id]
    if not selected:
        return "(no spans)"
    by_id = {s.span_id: s for s in selected}
    children: Dict[Optional[str], List[Span]] = {}
    roots: List[Span] = []
    for span in selected:
        if span.parent_id is not None and span.parent_id in by_id:
            children.setdefault(span.parent_id, []).append(span)
        else:
            roots.append(span)
    for sibling_list in children.values():
        sibling_list.sort(key=lambda s: (s.start, s.span_id))
    roots.sort(key=lambda s: (s.trace_id, s.start, s.span_id))
    lines: List[str] = []

    def emit(span: Span, depth: int) -> None:
        status = "" if span.status == "ok" else f"  [{span.status}]"
        lines.append(
            f"{'  ' * depth}{span.name}  "
            f"{span.duration * 1e3:.2f}ms  "
            f"({span.process}){status}")
        for child in children.get(span.span_id, ()):
            emit(child, depth + 1)

    last_trace = None
    for root in roots:
        if root.trace_id != last_trace:
            lines.append(f"trace {root.trace_id}")
            last_trace = root.trace_id
        emit(root, 1)
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Per-process trace files + merge
# ---------------------------------------------------------------------------


def write_trace_file(path: str, tracer: Optional[Tracer] = None,
                     spans: Optional[Sequence[Span]] = None) -> str:
    """Write one process's spans as a mergeable trace file."""
    if tracer is None:
        tracer = get_tracer()
    if spans is None:
        spans = tracer.spans()
    doc = {
        "schema": TRACE_SCHEMA,
        "process": tracer.process,
        "pid": os.getpid(),
        "origin_wall": tracer._origin_wall,
        "spans": [s.to_dict() for s in spans],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    return path


def read_trace_file(path: str) -> List[Span]:
    """Load the spans of one per-process trace file."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    if doc.get("schema") != TRACE_SCHEMA:
        raise ValueError(
            f"{path}: not a {TRACE_SCHEMA} trace file "
            f"(schema={doc.get('schema')!r})")
    process = str(doc.get("process", "unknown"))
    return [Span.from_dict({"process": process, **payload})
            for payload in doc.get("spans", [])]


def merge_trace_files(paths: Sequence[str],
                      out_path: Optional[str] = None) -> dict:
    """Merge per-process trace files into one Chrome trace.

    Span timestamps are already epoch-aligned per process (see the
    module docstring), so merging is concatenation onto the shared
    origin; pid/tid naming is stable (coordinator = 0, worker-N = N).
    Writes the Chrome JSON to *out_path* when given; returns the trace
    document either way.
    """
    spans: List[Span] = []
    for path in paths:
        spans.extend(read_trace_file(path))
    spans.sort(key=lambda s: (s.start, s.process, s.span_id))
    doc = spans_to_chrome_trace(spans)
    if out_path is not None:
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    return doc
