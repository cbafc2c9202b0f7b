"""The REPRO_CHECK dynamic checkers — lock-order graph, recursive
acquire, unheld release — and the static ``guarded-by`` cases that
replaced the runtime lockset race detector.

Deliberate violations run against throwaway ``_CheckState`` instances
(via the ``check_state`` fixture) so nothing leaks into the
environment state the REPRO_CHECK=1 CI lane asserts clean.
"""

import threading

import pytest

from repro.analysis import lint_file, lint_source, runtime
from repro.analysis.runtime import (CheckedLock, checking_enabled,
                                    lock_order_edges, make_condition,
                                    make_lock, violations)
from repro.memory import pools


@pytest.fixture
def check_state(monkeypatch):
    """Swap the module-global checking state for a fresh throwaway one."""
    state = runtime._CheckState()
    monkeypatch.setattr(runtime, "_state", state)
    return state


def kinds(state):
    with state.violations_lock:
        return [v.kind for v in state.violations]


def run_threads(*bodies):
    threads = [threading.Thread(target=body) for body in bodies]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
    assert not any(t.is_alive() for t in threads)


# -- lock-order graph ----------------------------------------------------


def test_consistent_order_is_clean(check_state):
    a, b = make_lock("order.a"), make_lock("order.b")

    def nested():
        with a:
            with b:
                pass

    run_threads(nested, nested)
    assert kinds(check_state) == []
    assert ("order.a", "order.b") in lock_order_edges()


def test_two_lock_inversion_is_reported(check_state):
    a, b = make_lock("inv.a"), make_lock("inv.b")
    ready = threading.Barrier(2, timeout=10)

    def forward():
        with a:
            with b:
                ready.wait()

    def backward():
        ready.wait()
        with b:
            with a:
                pass

    run_threads(forward, backward)
    assert "lock-order" in kinds(check_state)
    report = [v for v in check_state.violations if v.kind == "lock-order"][0]
    assert "potential deadlock" in report.message
    assert report.stack and report.other_stack  # both stacks attached


def test_three_lock_inversion_across_two_threads(check_state):
    """The ISSUE's canonical case: A->B->C in one thread, C->A in the
    other closes the cycle without any direct B/A inversion."""
    a, b, c = make_lock("tri.a"), make_lock("tri.b"), make_lock("tri.c")
    first_done = threading.Event()

    def chain():
        with a:
            with b:
                with c:
                    pass
        first_done.set()

    def closer():
        assert first_done.wait(10)
        with c:
            with a:
                pass

    run_threads(chain, closer)
    reports = [v for v in check_state.violations if v.kind == "lock-order"]
    assert len(reports) == 1
    assert "tri.c" in reports[0].message and "tri.a" in reports[0].message


def test_same_name_different_instances_not_flagged(check_state):
    outer, inner = CheckedLock("task", state=check_state), CheckedLock(
        "task", state=check_state)
    with outer:
        with inner:
            pass
    assert kinds(check_state) == []


def test_recursive_acquire_raises(check_state):
    lock = make_lock("recursive")
    with lock:
        with pytest.raises(RuntimeError, match="re-acquired"):
            lock.acquire()  # lint: disable=raw-acquire
    assert kinds(check_state) == ["recursive-acquire"]


def test_nonblocking_probe_of_held_lock_is_not_a_violation(check_state):
    lock = make_lock("probe")
    with lock:
        assert lock.acquire(False) is False
    assert kinds(check_state) == []


def test_unheld_release_is_reported(check_state):
    lock = make_lock("unheld")
    lock.acquire()  # lint: disable=raw-acquire
    try:
        pass
    finally:
        lock.release()
    lock.acquire()  # lint: disable=raw-acquire
    lock.release()
    assert kinds(check_state) == []
    with pytest.raises(RuntimeError):
        lock.release()  # CPython raises; the violation is recorded first
    assert kinds(check_state) == ["unheld-release"]


def test_condition_over_checked_lock(check_state):
    cond = make_condition("cond.checked")
    results = []

    def producer():
        with cond:
            results.append("produced")
            cond.notify()

    def consumer():
        with cond:
            while not results:
                cond.wait(1)
            results.append("consumed")

    run_threads(consumer, producer)
    assert kinds(check_state) == []
    assert results == ["produced", "consumed"]


# -- shared-state discipline: the static guarded-by rule -----------------
#
# Which lock guards which state is checked statically, not at run time;
# these are the lockset cases (racy write, locked write, exclusive
# owner, shared reads, lock-free by design) stated against the rule.


GUARDED = """\
import threading

class Shared:
    def __init__(self):
        self._lock = threading.Lock()
        self.value = 0  # guarded-by: _lock
        self.value = 1
"""


def guarded_findings(source):
    return lint_source(source, rules=["guarded-by"])


def test_unsynchronised_writes_from_two_threads_flagged():
    source = GUARDED + "    def write(self):\n        self.value += 1\n"
    found = guarded_findings(source)
    assert [v.line for v in found] == [9]
    assert "self.value" in found[0].message


def test_guarded_writes_are_clean():
    source = GUARDED + ("    def write(self):\n"
                        "        with self._lock:\n"
                        "            self.value += 1\n")
    assert guarded_findings(source) == []


def test_single_thread_needs_no_lock():
    # Construction precedes sharing: the unlocked second write in
    # __init__ (line 7) is exempt.
    assert guarded_findings(GUARDED) == []


def test_shared_reads_without_lock_are_clean():
    source = GUARDED + ("    def read(self):\n"
                        "        return self.value + 1\n")
    assert guarded_findings(source) == []


def test_atomic_policy_records_but_never_flags():
    # §VII-C: the pools' free-lists are lock-free by design (GIL-atomic
    # deque append/pop), so they carry no guarded-by annotation and the
    # rule has nothing to flag there.
    assert lint_file(pools.__file__, rules=["guarded-by"]) == []


def test_unknown_policy_rejected():
    with pytest.raises(ValueError, match="unknown lint rule"):
        lint_source(GUARDED, rules=["guarded-by", "wishful"])


# -- gating --------------------------------------------------------------


def test_make_lock_is_plain_when_disabled(monkeypatch):
    monkeypatch.setattr(runtime, "_state", None)
    assert not checking_enabled()
    lock = make_lock("anything")
    assert not isinstance(lock, CheckedLock)
    assert violations() == []


def test_make_lock_is_checked_when_enabled(check_state):
    assert checking_enabled()
    assert isinstance(make_lock("anything"), CheckedLock)


def test_violations_are_observable_via_metrics(check_state):
    before = check_state.m_lock_order.value
    lock = make_lock("metrics.recursive")
    with lock:
        with pytest.raises(RuntimeError):
            lock.acquire()  # lint: disable=raw-acquire
    assert check_state.m_lock_order.value == before + 1
