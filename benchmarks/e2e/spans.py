"""The harness's own in-memory span recorder.

Deliberately not ``repro.observability.Tracer``: later changes will
edit that, and a benchmark must not move with the code it measures.
Spans wrap the calls the harness makes into the program, from outside.
"""

import contextlib
import itertools
import threading
import time
from collections import defaultdict


class SpanRecorder:
    """Spans as dicts: id, name, parent, op, start, end (seconds on
    ``time.perf_counter``).  The parent is the enclosing span of the
    same thread."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextlib.contextmanager
    def span(self, name, op=None):
        stack = self._local.__dict__.setdefault("stack", [])
        record = {"id": next(self._ids), "name": name, "op": op,
                  "parent": stack[-1] if stack else None,
                  "start": time.perf_counter(), "end": None}
        stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def table(self, root="client"):
        """Self time per span name.

        A span's self time is its duration minus its children's (the
        children of one span run one after another in its thread, so
        their durations do not overlap).  The self time of the *root*
        spans, which is the loop's own bookkeeping plus anything no
        span covers, is reported as ``unaccounted``; ``total_s`` is the
        summed duration of every span without a parent, which the rows
        and ``unaccounted`` add up to.
        """
        covered = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        rows = defaultdict(lambda: {"calls": 0, "self_s": 0.0})
        for s in self.spans:
            row = rows[s["name"]]
            row["calls"] += 1
            row["self_s"] += s["end"] - s["start"] - covered[s["id"]]
        unaccounted = rows.pop(root, {"self_s": 0.0})["self_s"]
        total = sum(s["end"] - s["start"] for s in self.spans
                    if s["parent"] is None)
        return {"rows": dict(rows), "unaccounted_s": unaccounted,
                "total_s": total}


def span(recorder, name, op=None):
    """``recorder.span(...)``, or a no-op when tracing is off."""
    if recorder is None:
        return contextlib.nullcontext()
    return recorder.span(name, op)
