"""Concurrent priority queue as a heap of lists (Section VII-A).

The global task queue is the scheduler's central synchronisation point,
so its critical sections must be short.  ZNN implements it as a *heap of
lists*: a binary heap keyed by the (few) distinct priority values, each
heap entry holding a FIFO list of tasks at that priority.  Insertion and
deletion then cost ``O(log K)`` where ``K`` is the number of distinct
priorities present — much smaller than the number of queued tasks
``N`` for wide networks, where whole layers share one priority.

Lower priority *values* pop first (priority 0 is the most urgent);
the scheduler assigns update tasks the largest value so they are only
drawn when nothing else is ready (Section VI-A).

``pop`` supports blocking with timeout for worker loops, and entries can
be *invalidated* without scanning the deques — the FORCE protocol steals
an update task by flipping its state, and a popped entry whose
``is_valid`` callback fails is skipped.  ``close`` wakes all blocked
workers for shutdown.

The queue publishes ``queue.push`` / ``queue.pop`` / ``queue.skipped``
counters, a ``queue.depth`` gauge and a ``queue.wait_seconds`` histogram
(enqueue-to-dequeue latency) into the observability registry — the raw
material for the Section VII-A contention discussion.
"""

from __future__ import annotations

import heapq
import threading
import time
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.analysis.runtime import make_lock
from repro.observability.metrics import MetricsRegistry, get_registry

__all__ = ["HeapOfLists", "QueueClosed"]


class QueueClosed(Exception):
    """Raised by :meth:`HeapOfLists.pop` after :meth:`HeapOfLists.close`."""


class HeapOfLists:
    """Thread-safe priority queue with O(log K) operations.

    Items are arbitrary objects.  An optional per-item validity callback
    supplied at push time allows lock-free logical removal: invalid
    items are dropped at pop time.
    """

    def __init__(self, metrics: Optional[MetricsRegistry] = None) -> None:
        self._lock = make_lock("sync.queue")
        self._not_empty = threading.Condition(self._lock)  # type: ignore[arg-type]
        self._heap: List[int] = []  # guarded-by: _lock
        self._lists: Dict[int, Deque[Tuple[Any, Optional[Callable[[], bool]], float]]] = {}  # guarded-by: _lock
        self._size = 0  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        reg = metrics if metrics is not None else get_registry()
        self._m_reg = reg
        self._m_push = reg.counter("queue.push")
        self._m_pop = reg.counter("queue.pop")
        self._m_skipped = reg.counter("queue.skipped")
        self._m_depth = reg.gauge("queue.depth")
        self._m_wait = reg.histogram("queue.wait_seconds")

    def push(self, priority: int, item: Any,
             is_valid: Optional[Callable[[], bool]] = None) -> None:
        """Insert *item* at *priority* (lower pops first)."""
        priority = int(priority)
        enqueued = time.perf_counter() if self._m_reg.enabled else 0.0
        with self._lock:
            if self._closed:
                raise QueueClosed("push after close")
            bucket = self._lists.get(priority)
            if bucket is None:
                bucket = deque()
                self._lists[priority] = bucket
                heapq.heappush(self._heap, priority)  # O(log K)
            bucket.append((item, is_valid, enqueued))
            self._size += 1
            self._m_depth.set(self._size)
            self._not_empty.notify()
        self._m_push.inc()

    def pop(self, block: bool = True,
            timeout: Optional[float] = None) -> Tuple[int, Any]:
        """Remove and return ``(priority, item)`` of the most urgent
        valid item.

        Raises ``IndexError`` when empty and not blocking (or on
        timeout), :class:`QueueClosed` once the queue is closed and
        drained.
        """
        with self._lock:
            while True:
                entry = self._pop_valid_locked()
                if entry is not None:
                    return entry
                if self._closed:
                    raise QueueClosed("queue closed")
                if not block:
                    raise IndexError("pop from empty queue")
                if not self._not_empty.wait(timeout):
                    raise IndexError("pop timed out")

    def _pop_valid_locked(self) -> Optional[Tuple[int, Any]]:
        while self._heap:
            priority = self._heap[0]
            bucket = self._lists[priority]
            while bucket:
                item, is_valid, enqueued = bucket.popleft()
                self._size -= 1
                self._m_depth.set(self._size)
                if is_valid is None or is_valid():
                    if not bucket:
                        heapq.heappop(self._heap)     # O(log K)
                        del self._lists[priority]
                    self._m_pop.inc()
                    if enqueued:
                        self._m_wait.observe(time.perf_counter() - enqueued)
                    return priority, item
                self._m_skipped.inc()
            heapq.heappop(self._heap)
            del self._lists[priority]
        return None

    def close(self) -> None:
        """Mark the queue closed and wake all blocked poppers."""
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    def __len__(self) -> int:
        """Approximate size (includes logically-removed entries)."""
        with self._lock:
            return self._size

    def distinct_priorities(self) -> int:
        """Number of distinct priority values present (the K in O(log K))."""
        with self._lock:
            return len(self._heap)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            return (f"HeapOfLists(size={self._size}, "
                    f"priorities={len(self._heap)}, closed={self._closed})")
