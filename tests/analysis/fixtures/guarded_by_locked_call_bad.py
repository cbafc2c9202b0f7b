"""Seeded violation: a ``*_locked`` helper called without its lock."""

import contextlib
import threading


class Queue:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = []  # guarded-by: _lock

    def _drain_locked(self):
        self._items.clear()  # exempt: the caller promises the lock

    def drain_unlocked(self):
        self._drain_locked()  # VIOLATION: no lock held

    def drain_in_other_context(self):
        with contextlib.suppress(ValueError):
            self._drain_locked()  # VIOLATION: not a lock-like `with`


class Unannotated:
    """No guarded-by attribute: the callers are checked all the same."""

    def __init__(self):
        self._lock = threading.Lock()

    def _size_locked(self):
        return 0

    @property
    def size(self):
        return self._size_locked()  # VIOLATION: no lock held
