"""Clean twin: every ``*_locked`` helper call holds a guard (or is
exempt)."""

import threading


class Queue:
    def __init__(self):
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._items = []  # guarded-by: _lock, _cond
        self._drain_locked()  # construction precedes sharing

    def _drain_locked(self):
        self._items.clear()

    def _reset_locked(self):
        self._drain_locked()  # _locked suffix: caller holds the guard

    def drain(self):
        with self._lock:
            self._drain_locked()

    def wait_and_drain(self):
        with self._cond:
            while not self._items:
                self._cond.wait()
            self._reset_locked()
