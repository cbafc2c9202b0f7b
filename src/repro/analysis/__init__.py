"""Concurrency correctness tooling (docs/static_analysis.md).

Two halves, one checker per invariant:

* **static** — :mod:`repro.analysis.linting`: an AST lint engine
  (``repro lint``) enforcing the repo's lock disciplines: declared
  ``# guarded-by:`` attributes are mutated only under their lock and
  ``*_locked`` helpers are called only with a lock held, no raw
  ``.acquire()`` without try/finally, no blocking calls while holding
  a lock, the Algorithm-4 summation critical section stays
  pointer-swap-only, and every metric name is catalogued.

* **dynamic** — :mod:`repro.analysis.runtime`: ``REPRO_CHECK=1`` swaps
  the instrumented subsystems' locks for :class:`CheckedLock`, which
  checks what only a run can see: the global lock-order graph (cycle
  ⇒ potential-deadlock report with both stacks), recursive acquires
  and releases of unheld locks.
"""

from repro.analysis.linting import (
    ALL_RULES,
    LintViolation,
    lint_file,
    lint_paths,
    lint_source,
    render_violations,
)
from repro.analysis.runtime import (
    CheckedLock,
    Violation,
    assert_clean,
    checking_enabled,
    disable_checks,
    enable_checks,
    lock_order_edges,
    make_condition,
    make_lock,
    reset_violations,
    violations,
)

__all__ = [
    "ALL_RULES",
    "CheckedLock",
    "LintViolation",
    "Violation",
    "assert_clean",
    "checking_enabled",
    "disable_checks",
    "enable_checks",
    "lint_file",
    "lint_paths",
    "lint_source",
    "lock_order_edges",
    "make_condition",
    "make_lock",
    "render_violations",
    "reset_violations",
    "violations",
]
