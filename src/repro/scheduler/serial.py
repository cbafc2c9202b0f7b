"""Serial task executor — the ``T_1`` baseline.

Executes the same task objects as :class:`repro.scheduler.TaskEngine`,
through the same per-attempt bracket (:class:`repro.scheduler.engine.
Engine`), but on the calling thread, draining the queue in priority
order.  This is both the speedup denominator of Section VIII and a
deterministic execution mode that makes unit-testing the graph logic
easy.

Like the threaded engine it honours an optional
:class:`repro.resilience.RetryPolicy` (failed tasks re-execute in place
after backoff) and an installed :class:`repro.resilience.FaultPlan`.
"""

from __future__ import annotations

import threading
import time
from typing import Iterable

from repro.scheduler.engine import Engine
from repro.scheduler.task import Task

__all__ = ["SerialEngine"]


class SerialEngine(Engine):
    """Drop-in single-threaded replacement for :class:`TaskEngine`.

    ``submit`` enqueues; ``run_until_idle`` (called automatically by
    ``shutdown``/context exit, or manually mid-round) pops and executes
    until the queue drains.  Because spawned tasks land back on the same
    queue, one call executes a whole training round.  A failure
    raises out of ``run_until_idle``; ``errors`` stays empty.
    """

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.run_until_idle()

    def shutdown(self) -> None:
        self.run_until_idle()

    # ------------------------------------------------------------------

    def run_until_idle(self) -> int:
        """Execute queued tasks (and everything they spawn) to quiescence.

        Returns the number of tasks executed by this call.  With a
        retry policy, a failing task re-executes in place (after
        backoff) until it succeeds or the retry budget is exhausted;
        only then does the failure propagate.
        """
        count = 0
        try:
            while True:
                try:
                    _, task = self.queue.pop(block=False)
                except IndexError:
                    return count
                t0 = time.perf_counter()
                # t0 is only subtracted into busy seconds, queue wait
                # and the task span; it decides nothing.
                while self._attempt(
                        task, 0, t0) == "retried":  # nondeterministic: metrics
                    task.mark_queued()  # re-execute in place
                    t0 = task.queued_at = time.perf_counter()
                count += 1
        finally:
            with self._lock:
                self._executed += count

    def wait_for(self, event: threading.Event, what: str) -> None:
        """Drain the queue; the tasks run must have set *event*."""
        self.run_until_idle()
        if not event.is_set():
            raise RuntimeError(f"{what} did not complete (queue drained)")

    def complete(self, tasks: Iterable[Task]) -> None:
        """Make sure every task of *tasks* has run — here, by draining
        the queue they sit on."""
        self.run_until_idle()
