"""Almost wait-free concurrent summation — Algorithm 4 (Section VII-B).

When multiple convolution edges converge on a node, their results must
be accumulated into one sum.  The naive strategy holds a lock while
adding two images, so critical-section time scales with the image size
``n^3``.  ZNN's method performs **only pointer operations inside the
critical section**: each thread repeatedly tries to deposit its pointer
into the slot; on failure it takes whatever pointer is there, adds it
into its own image *outside* the lock, and retries.  The thread whose
deposit completes the count learns it was last and triggers the
dependents.

This module transcribes Algorithm 4 exactly (``ConcurrentSum``) and a
naive locked baseline for the ablation benchmark, and holds the sum
every network node runs, :class:`OrderedSum`: as short a critical
section, adding in edge order.  Each can ``reset`` for the next round.

The buffers may be real images or complex FFT spectra — the FFT path
accumulates spectra at each node and the last thread's ``get`` feeds
the layer's inverse-transform finaliser.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.analysis.runtime import make_lock

__all__ = ["ConcurrentSum", "NaiveLockedSum", "OrderedSum",
           "reduce_in_order"]


# deterministic
def reduce_in_order(slots: Sequence[np.ndarray]) -> np.ndarray:
    """Sum *slots* in index order: ``((slots[0] + slots[1]) + ...)``.

    The deterministic closing step of the data-parallel trainer
    (:class:`repro.parallel.ParallelTrainer`, per-sample gradients from
    every process filed by global sample index), and the association
    :class:`OrderedSum` reaches in place: because
    the association order is fixed by slot index, the floating-point
    result is bitwise independent of which thread or process produced
    each contribution, and of how many there were.

    With a single slot the slot itself is returned (no copy) — callers
    that must not alias the inputs copy explicitly.
    """
    if not slots:
        raise ValueError("cannot reduce zero slots")
    result = slots[0]
    for slot in slots[1:]:
        result = result + slot
    return result


class _CountedSum:
    """What the three accumulators share: a validated ``required``
    count and the rule that a sum is only reset between rounds
    (nothing, or everything, contributed).  Each subclass creates its
    own ``_lock`` and the ``_total`` it guards, so the ``guarded-by``
    lint sees the annotation next to the mutations it checks."""

    _total: int

    def __init__(self, required: int) -> None:
        self.required = self._checked(required)

    @staticmethod
    def _checked(required: int) -> int:
        if required < 1:
            raise ValueError(f"required must be >= 1, got {required}")
        return required

    def _restart_count_locked(self, required: Optional[int]) -> None:
        """Zero the count (optionally changing ``required``) for the
        next round; the caller holds ``_lock``."""
        if self._total not in (0, self.required):
            raise RuntimeError(
                f"reset during accumulation ({self._total}/{self.required})")
        if required is not None:
            self.required = self._checked(required)
        self._total = 0


class ConcurrentSum(_CountedSum):
    """Accumulate a known number of same-shaped arrays, almost wait-free.

    Parameters
    ----------
    required:
        Number of contributions that complete the sum (the node's
        in-degree in the computation graph).
    """

    def __init__(self, required: int) -> None:
        super().__init__(required)
        self._lock = make_lock("sync.summation")
        self._sum: Optional[np.ndarray] = None  # guarded-by: _lock
        self._total = 0  # guarded-by: _lock

    def reset(self, required: Optional[int] = None) -> None:
        """Prepare the object for the next round's accumulation."""
        with self._lock:
            self._restart_count_locked(required)
            self._sum = None

    def add(self, value: np.ndarray, index: Optional[int] = None) -> bool:
        """ADD-TO-SUM: contribute *value*; return True iff this call
        completed the sum (the caller then owns triggering dependents).

        The caller relinquishes *value* — it may be mutated in place and
        may become the final sum buffer.  *index* is taken so the three
        accumulators are called alike, and ignored: arrival order, not
        the contributor's position, decides the association order.
        """
        v: Optional[np.ndarray] = value
        v_other: Optional[np.ndarray] = None
        last = False
        overflow = False
        while True:
            with self._lock:  # critical-section: swap-only
                if self._sum is None:
                    self._sum = v
                    v = None
                    self._total += 1
                    overflow = self._total > self.required
                    last = self._total == self.required
                else:
                    v_other = self._sum
                    self._sum = None
            if overflow:
                # Error formatting/raising stays outside the swap-only
                # critical section.
                raise RuntimeError(
                    f"more than required={self.required} contributions")
            if v is None:
                return last
            # The expensive addition happens outside the critical section.
            v += v_other

    def get(self) -> np.ndarray:
        """GET-SUM: the accumulated array; only valid once complete."""
        with self._lock:
            if self._total != self.required:
                raise RuntimeError(
                    f"sum incomplete: {self._total}/{self.required}")
            if self._sum is None:
                raise RuntimeError("sum pointer missing (unfinished add race)")
            return self._sum

    @property
    def complete(self) -> bool:
        with self._lock:
            return self._total == self.required and self._sum is not None


class NaiveLockedSum(_CountedSum):
    """Baseline: hold the lock for the entire addition.

    Critical-section time scales with the image size; used only by the
    Section VII-B ablation benchmark.
    """

    def __init__(self, required: int) -> None:
        super().__init__(required)
        self._lock = make_lock("sync.summation.naive")
        self._sum: Optional[np.ndarray] = None  # guarded-by: _lock
        self._total = 0  # guarded-by: _lock

    def reset(self, required: Optional[int] = None) -> None:
        with self._lock:
            self._restart_count_locked(required)
            self._sum = None

    def add(self, value: np.ndarray, index: Optional[int] = None) -> bool:
        with self._lock:
            if self._sum is None:
                self._sum = value
            else:
                self._sum += value  # the slow addition, under the lock
            self._total += 1
            if self._total > self.required:
                raise RuntimeError(
                    f"more than required={self.required} contributions")
            return self._total == self.required

    def get(self) -> np.ndarray:
        with self._lock:
            if self._total != self.required or self._sum is None:
                raise RuntimeError(
                    f"sum incomplete: {self._total}/{self.required}")
            return self._sum

    @property
    def complete(self) -> bool:
        with self._lock:
            return self._total == self.required and self._sum is not None


class OrderedSum(_CountedSum):
    """Deterministic concurrent accumulation (every network node's sum).

    The wait-free scheme adds contributions in arrival order, so
    floating-point round-off depends on the thread schedule — runs with
    different worker counts agree only to ~1e-12.  ``OrderedSum`` adds
    in index order instead, for **bitwise reproducibility**: the result
    is :func:`reduce_in_order`'s, reached in place.  A contribution is
    added into one accumulator once every lower index has been (one
    that arrives early waits in its slot), by one thread at a time,
    outside the lock; the critical section holds only pointer and slot
    operations, and no contribution is mutated.
    """

    def __init__(self, required: int) -> None:
        super().__init__(required)
        self._lock = make_lock("sync.summation.ordered")
        self._slots: List[Optional[np.ndarray]] = [None] * required  # guarded-by: _lock
        self._total = 0  # guarded-by: _lock
        self._next = 0  # guarded-by: _lock
        self._adding = False  # guarded-by: _lock
        self._result: Optional[np.ndarray] = None  # guarded-by: _lock

    def reset(self, required: Optional[int] = None) -> None:
        with self._lock:
            self._restart_count_locked(required)
            self._slots = [None] * self.required
            self._next = 0
            self._adding = False  # an add that raised may have left it set
            self._result = None

    # deterministic
    def add(self, value: np.ndarray, index: Optional[int] = None,
            alloc=np.empty) -> bool:
        """Deposit *value* at *index* (the edge's position among the
        node's contributors) and add every contribution now in turn into
        a copy of contribution 0 from *alloc* (one contribution is its own
        sum); returns True for the call that adds the last."""
        if index is None or not 0 <= index < self.required:
            raise ValueError(
                f"index {index} out of range [0, {self.required})")
        with self._lock:
            if self._slots[index] is not None or index < self._next:
                raise RuntimeError(f"slot {index} already filled")
            self._slots[index] = value
            self._total += 1
            if self._adding:  # the adding thread will take it in turn
                return False
            self._adding, total = True, self._result
        while True:
            with self._lock:
                self._result, turn = total, self._next
                if turn == self.required or self._slots[turn] is None:
                    self._adding = False
                    return turn == self.required
                value, self._slots[turn] = self._slots[turn], None
                self._next = turn + 1
            # Fixed index order -> schedule-independent result.
            if turn:
                total += value
            elif self.required > 1:
                total = alloc(value.shape, value.dtype)
                np.copyto(total, value)
            else:
                total = value

    def get(self) -> np.ndarray:
        with self._lock:
            if self._next < self.required or self._adding:
                raise RuntimeError(
                    f"sum incomplete: {self._total}/{self.required}")
            return self._result

    @property
    def complete(self) -> bool:
        with self._lock:
            return self._next == self.required and not self._adding
