"""Task retry policy for the execution engines.

The paper's engines treat the first task exception as fatal: the queue
closes and the whole multi-hour run dies.  A :class:`RetryPolicy`
layered into :class:`repro.scheduler.TaskEngine` /
:class:`repro.scheduler.SerialEngine` instead re-executes failed tasks
with exponential backoff before giving up.

Retry is safe for this codebase's task bodies because a *failed* task
has not published its result: node sums only receive contributions from
bodies that ran to completion, and update closures mutate parameters
only as their final action under the kernel lock.  A task that is slow
rather than failed is never re-run: a second copy of a running body
would add its edge's contribution, or apply its gradient, twice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple, Type

__all__ = ["RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How the engines respond to failing tasks.

    Parameters
    ----------
    max_retries:
        Re-execution budget per task (0 disables retry; the engine then
        behaves exactly as without a policy).
    backoff_seconds / backoff_factor / max_backoff_seconds:
        Exponential backoff: attempt *k* (0-based) sleeps
        ``min(backoff_seconds * backoff_factor**k, max_backoff_seconds)``
        before re-queueing.
    retry_on:
        Exception types eligible for retry.  Defaults to ``Exception``
        — programming errors like ``KeyboardInterrupt``/``SystemExit``
        (BaseException) always propagate.
    """

    max_retries: int = 2
    backoff_seconds: float = 0.01
    backoff_factor: float = 2.0
    max_backoff_seconds: float = 1.0
    retry_on: Tuple[Type[BaseException], ...] = (Exception,)

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_seconds < 0 or self.max_backoff_seconds < 0:
            raise ValueError("backoff seconds must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}")

    def backoff(self, attempt: int) -> float:
        """Sleep before re-queueing after failed attempt *attempt*
        (0-based)."""
        return min(self.backoff_seconds * self.backoff_factor ** attempt,
                   self.max_backoff_seconds)

    def should_retry(self, error: BaseException, attempts: int) -> bool:
        """May a task that has already failed *attempts* times retry
        after *error*?"""
        return (attempts < self.max_retries
                and isinstance(error, self.retry_on))
