"""Alternative scheduling structures (Section X).

The ZNN repository "provides alternative scheduling strategies such as
simple FIFO or LIFO as well as some more complex ones based on work
stealing", which "achieve noticeably lower scalability than the one
proposed in the paper for most networks".  We implement all three behind
the same interface as :class:`repro.sync.HeapOfLists` so they can be
plugged into :class:`repro.scheduler.TaskEngine`, the serial engine and
the discrete-event simulator, and be compared head-to-head
(``tests/simulate/test_des.py::TestPaperNetClaims``; the table is a
section of ``examples/reproduce_paper.py``).

Interface: ``push(priority, item, is_valid=None)``, ``pop(block=True,
timeout=None) -> (priority, item)``, ``close()``, ``__len__``.
"""

from __future__ import annotations

import threading
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.analysis.runtime import make_lock
from repro.sync.priority_queue import HeapOfLists, QueueClosed

__all__ = [
    "FifoScheduler",
    "LifoScheduler",
    "WorkStealingScheduler",
    "make_scheduler",
    "SCHEDULER_FACTORIES",
]


class _SingleQueueBase:
    """Shared machinery for the FIFO / LIFO single-structure schedulers."""

    def __init__(self) -> None:
        self._lock = make_lock("scheduler.single_queue")
        self._not_empty = threading.Condition(self._lock)  # type: ignore[arg-type]
        self._items: Deque[Tuple[int, Any, Optional[Callable[[], bool]]]] = deque()  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    def push(self, priority: int, item: Any,
             is_valid: Optional[Callable[[], bool]] = None) -> None:
        with self._lock:
            if self._closed:
                raise QueueClosed("push after close")
            self._items.append((int(priority), item, is_valid))
            self._not_empty.notify()

    def _take_locked(self) -> Tuple[int, Any, Optional[Callable[[], bool]]]:
        raise NotImplementedError

    def pop(self, block: bool = True,
            timeout: Optional[float] = None) -> Tuple[int, Any]:
        with self._lock:
            while True:
                while self._items:
                    priority, item, is_valid = self._take_locked()
                    if is_valid is None or is_valid():
                        return priority, item
                if self._closed:
                    raise QueueClosed("queue closed")
                if not block:
                    raise IndexError("pop from empty queue")
                if not self._not_empty.wait(timeout):
                    raise IndexError("pop timed out")

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return len(self._items)


class FifoScheduler(_SingleQueueBase):
    """Plain first-in-first-out queue; priorities are ignored."""

    def _take_locked(self):
        return self._items.popleft()


class LifoScheduler(_SingleQueueBase):
    """Plain last-in-first-out stack; priorities are ignored."""

    def _take_locked(self):
        return self._items.pop()


class WorkStealingScheduler:
    """Per-worker deques with stealing, after Blumofe & Leiserson [22].

    Each worker owns a deque: it pushes and pops at the *bottom* (LIFO —
    good locality for the task tree it is expanding), and when empty it
    *steals* from the *top* of a victim's deque (FIFO end — the oldest,
    typically largest piece of work).  Pushes from non-worker threads
    (e.g. the round's seed tasks) round-robin across deques.

    Thread-to-deque mapping is by thread ident, assigned on first use,
    capped at *num_workers* distinct owners.
    """

    def __init__(self, num_workers: int, seed: int = 0) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        self.num_workers = num_workers
        self._lock = make_lock("scheduler.worksteal")
        self._not_empty = threading.Condition(self._lock)  # type: ignore[arg-type]
        self._deques: list[Deque[Tuple[int, Any, Optional[Callable[[], bool]]]]] = [
            deque() for _ in range(num_workers)]  # guarded-by: _lock
        self._owners: dict[int, int] = {}  # guarded-by: _lock
        self._rr = seed  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock

    def _deque_index(self) -> int:
        ident = threading.get_ident()
        with self._lock:
            idx = self._owners.get(ident)
            if idx is None:
                if len(self._owners) < self.num_workers:
                    idx = len(self._owners)
                    self._owners[ident] = idx
                else:
                    idx = self._rr % self.num_workers
                    self._rr += 1
            return idx

    def push(self, priority: int, item: Any,
             is_valid: Optional[Callable[[], bool]] = None) -> None:
        idx = self._deque_index()
        with self._lock:
            if self._closed:
                raise QueueClosed("push after close")
            self._deques[idx].append((int(priority), item, is_valid))
            self._not_empty.notify()

    def pop(self, block: bool = True,
            timeout: Optional[float] = None) -> Tuple[int, Any]:
        idx = self._deque_index()
        with self._lock:
            while True:
                entry = self._pop_locked(idx)
                if entry is not None:
                    return entry
                if self._closed:
                    raise QueueClosed("queue closed")
                if not block:
                    raise IndexError("pop from empty queue")
                if not self._not_empty.wait(timeout):
                    raise IndexError("pop timed out")

    def _pop_locked(self, idx: int) -> Optional[Tuple[int, Any]]:
        # Own deque, bottom (LIFO).
        own = self._deques[idx]
        while own:
            priority, item, is_valid = own.pop()
            if is_valid is None or is_valid():
                return priority, item
        # Steal from victims, top (FIFO).
        for offset in range(1, self.num_workers):
            victim = self._deques[(idx + offset) % self.num_workers]
            while victim:
                priority, item, is_valid = victim.popleft()
                if is_valid is None or is_valid():
                    return priority, item
        return None

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()

    def __len__(self) -> int:
        with self._lock:
            return sum(len(d) for d in self._deques)


SCHEDULER_FACTORIES = {
    "priority": lambda num_workers: HeapOfLists(),
    "fifo": lambda num_workers: FifoScheduler(),
    "lifo": lambda num_workers: LifoScheduler(),
    "work-stealing": lambda num_workers: WorkStealingScheduler(num_workers),
}


def make_scheduler(name: str, num_workers: int = 1):
    """Instantiate a scheduling structure by name.

    Names: ``"priority"`` (the paper's heap-of-lists), ``"fifo"``,
    ``"lifo"``, ``"work-stealing"``.
    """
    try:
        factory = SCHEDULER_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; "
            f"available: {sorted(SCHEDULER_FACTORIES)}") from None
    return factory(num_workers)
