"""Threaded task-execution engine (Section VI-B).

A predetermined number of worker threads repeatedly pick the most
urgent task off a shared scheduling structure and execute it.  The
default structure is the heap-of-lists priority queue; FIFO / LIFO /
work-stealing alternatives (Section X) plug in through the same
interface (see :mod:`repro.scheduler.strategies`).

In CPython the GIL serialises pure-Python bytecode, but the heavy task
bodies here are numpy FFTs and whole-block ufuncs, which release the GIL
for their inner loops, so workers do overlap real work on multi-core
hosts.  The scalability *measurements* of the paper are reproduced by
the discrete-event simulator (:mod:`repro.simulate`) which schedules the
identical task graph with this engine's policy — see DESIGN.md.

Whichever thread pops a task — a worker here, the caller of
:class:`repro.scheduler.SerialEngine` — runs it through the one bracket
of :class:`Engine`, so ``T_1`` and ``T_W`` are accounted with the same
ruler: per-family ``engine.tasks`` / ``engine.tasks.retried``,
``engine.failed``, ``engine.busy_seconds`` (``engine.idle_seconds`` is
the workers' own) and, with tracing on, one task span per attempt — the
live counterpart of the utilization quantities behind Figs 5–7.

Beyond the paper, the engine is fault-tolerant (see
``docs/robustness.md``): an optional
:class:`repro.resilience.RetryPolicy` re-executes failed tasks with
exponential backoff (``engine.tasks.retried``) before the failure
propagates.  An attempt is never taken away from the worker running
it, so a task body runs once per attempt and an overrunning one is not
recovered.  An installed :class:`repro.resilience.FaultPlan` injects
failures/hangs per task family for chaos testing; with no plan the
hot path pays a single global read.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.analysis.runtime import make_lock
from repro.observability.metrics import Counter, get_registry
from repro.observability.tracing import (
    flight_dump,
    flight_note,
    get_tracer,
    task_family,
)
from repro.resilience.faults import active_plan
from repro.resilience.retry import RetryPolicy
from repro.scheduler.task import Task, TaskState, force
from repro.sync.priority_queue import HeapOfLists, QueueClosed

__all__ = ["Engine", "TaskEngine", "LOWEST_PRIORITY", "task_family"]

#: Priority value assigned to update tasks — strictly less urgent than
#: any forward/backward priority the graph can produce (Section VI-A).
LOWEST_PRIORITY = 2**31


class Engine:
    """What both engines share: the submit side and the bracket one
    attempt of one task runs in (:meth:`_attempt`).  A subclass decides
    which thread pops tasks, and what happens to a task that must be
    retried or that failed for good."""

    num_workers = 1

    def __init__(self, scheduler: Optional[Any] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        self.queue = scheduler if scheduler is not None else HeapOfLists()
        self.retry_policy = retry_policy
        self._lock = make_lock("scheduler.engine")
        self._executed = 0  # guarded-by: _lock
        self._errors: List[BaseException] = []  # guarded-by: _lock
        reg = get_registry()
        self._metrics = reg
        self._m_failed = reg.counter("engine.failed")
        self._m_busy = reg.counter("engine.busy_seconds")
        self._m_tasks: Dict[str, Counter] = {}  # guarded-by: _lock
        self._m_retried: Dict[str, Counter] = {}  # guarded-by: _lock

    def start(self) -> "Engine":
        return self

    def __enter__(self) -> "Engine":
        return self.start()

    # ------------------------------------------------------------------

    def submit(self, task: Task) -> Task:
        """Enqueue *task* at its own priority."""
        task.mark_queued()
        task.queued_at = (
            time.perf_counter())  # nondeterministic: queue-wait metric
        self.queue.push(task.priority, task, is_valid=task.is_queued)
        return task

    def spawn(self, fn: Callable[[], Any], priority: int = 0,
              name: str = "") -> Task:
        """Create and enqueue a task in one step."""
        return self.submit(Task(fn, priority=priority, name=name))

    def force(self, update_task: Optional[Task], fn: Callable[[], Any],
              name: str = "") -> None:
        """FORCE a forward subtask behind its edge's update task
        (Algorithm 1) from the current thread."""
        force(update_task, Task(fn, name=name))

    @property
    def executed(self) -> int:
        """Tasks executed so far (attached subtasks included)."""
        with self._lock:
            return self._executed

    @property
    def errors(self) -> List[BaseException]:
        """Failures the engine holds for :meth:`shutdown` to raise."""
        with self._lock:
            return list(self._errors)

    # ------------------------------------------------------------------

    def _family_counter(self, cache: Dict[str, Counter], metric: str,
                        family: str) -> Counter:
        # Fast path: dict reads are GIL-atomic.  Insertion happens under
        # the engine lock (double-checked) — concurrent first-use of a
        # family must not race the dict resize.
        counter = cache.get(family)
        if counter is None:
            with self._lock:
                counter = cache.get(family)
                if counter is None:
                    counter = self._metrics.counter(metric, family=family)
                    cache[family] = counter
        return counter

    def _attempt(self, task: Task, worker: int, t0: float) -> str:
        """Run one attempt of *task*, popped by *worker* at *t0*, and
        account for it.  Returns ``"ok"`` (completed; counted in
        ``engine.tasks``) or ``"retried"`` (it raised and the policy
        grants another attempt: the task is PENDING again, the backoff is
        slept, the caller re-queues it).  A failure that is not retried
        is counted in ``engine.failed``, noted in the flight ring, and
        raised.  With tracing on the attempt is one task span carrying
        ``worker``, ``queue_wait`` and that status (``"error"`` for the
        raised failure).
        """
        family = task_family(task.name)
        tracer = get_tracer()
        try:
            if tracer.enabled:
                queue_wait = t0 - task.queued_at if task.queued_at else 0.0
                # ``worker`` marks a task span (summarize_task_spans).
                with tracer.span(task.name or "(anonymous)", family,
                                 task.span_context, worker=worker,
                                 queue_wait=queue_wait) as span:
                    status = self._execute(task, t0, family)
                    if status != "ok":
                        span.fail(status)
            else:
                status = self._execute(task, t0, family)
        except BaseException as error:
            flight_note("engine task failed fatally",
                        task=task.name, worker=worker,
                        error=f"{type(error).__name__}: {error}")
            flight_dump(f"engine-failed-{family}")
            raise
        if status == "retried":
            time.sleep(self.retry_policy.backoff(task.attempts - 1))
        return status

    def _execute(self, task: Task, t0: float, family: str) -> str:
        """The inside of :meth:`_attempt`'s span: fault-plan check, the
        task body, busy seconds, and the count / retry / fail decision
        (the failure that is not retried is raised)."""
        try:
            plan = active_plan()
            if plan is not None:
                plan.check(family, task.name)
            task.execute()
        except BaseException as error:
            policy = self.retry_policy
            if (policy is not None
                    and policy.should_retry(error, task.attempts)
                    and task.reset_for_retry()):
                self._family_counter(self._m_retried,
                                     "engine.tasks.retried", family).inc()
                return "retried"
            self._m_failed.inc()
            raise
        finally:
            self._m_busy.inc(time.perf_counter() - t0)
        self._family_counter(self._m_tasks, "engine.tasks", family).inc()
        return "ok"


class TaskEngine(Engine):
    """Executes tasks with *num_workers* threads until closed.

    Parameters
    ----------
    num_workers:
        Worker thread count (the paper's ``N`` workers).
    scheduler:
        Scheduling structure implementing ``push(priority, item,
        is_valid)``, ``pop(block, timeout)``, ``close()``.  Defaults to
        a fresh :class:`repro.sync.HeapOfLists`.
    retry_policy:
        Optional :class:`repro.resilience.RetryPolicy`.  Without one
        (the default) the first task failure closes the queue and
        propagates on :meth:`shutdown`, exactly the paper's behaviour.

    Use as a context manager to guarantee shutdown::

        with TaskEngine(num_workers=4) as engine:
            engine.submit(task)
            done.wait()
    """

    def __init__(self, num_workers: int = 1,
                 scheduler: Optional[Any] = None,
                 retry_policy: Optional[RetryPolicy] = None) -> None:
        if num_workers < 1:
            raise ValueError(f"num_workers must be >= 1, got {num_workers}")
        super().__init__(scheduler, retry_policy)
        self.num_workers = num_workers
        self._threads: List[threading.Thread] = []  # guarded-by: _lock
        self._started = False  # guarded-by: _lock
        self._errors_noted = False  # guarded-by: _lock
        self._m_idle = self._metrics.counter("engine.idle_seconds")

    # ------------------------------------------------------------------

    def start(self) -> "TaskEngine":
        with self._lock:
            if self._started:
                return self
            self._started = True
        threads = [threading.Thread(target=self._worker_loop,
                                    args=(index,),
                                    name=f"znn-worker-{index}", daemon=True)
                   for index in range(self.num_workers)]
        for t in threads:
            t.start()
        with self._lock:
            self._threads.extend(threads)
        return self

    def shutdown(self) -> None:
        """Close the queue and join all workers.

        If workers failed, the first exception is raised with every
        later one attached as an exception note (so multi-worker
        failures are not swallowed) and available via :attr:`errors`.
        A worker finishes the attempt it is running before it sees the
        closed queue, so a hung task body blocks shutdown.
        """
        self.queue.close()
        with self._lock:
            threads = list(self._threads)
            self._threads.clear()
        for t in threads:
            t.join()
        if self._errors:
            primary = self._errors[0]
            with self._lock:
                note_rest = not self._errors_noted
                self._errors_noted = True
            if note_rest:
                for extra in self._errors[1:]:
                    primary.add_note(
                        "additional worker error (see TaskEngine.errors): "
                        f"{type(extra).__name__}: {extra}")
            raise primary

    def __exit__(self, exc_type, exc, tb) -> None:
        self.shutdown()

    # -- waiting on the workers ------------------------------------------

    def wait_for(self, event: threading.Event, what: str) -> None:
        """Block until the tasks in flight set *event*; a worker
        failure in the meantime is raised here."""
        deadline = time.monotonic() + 300.0
        while not event.wait(0.05):
            if self.errors:
                raise self.errors[0]
            if time.monotonic() >= deadline:
                raise TimeoutError(f"{what} did not complete in 300s")

    def complete(self, tasks: Iterable[Task]) -> None:
        """Make sure every task of *tasks* has run: steal the ones
        still queued and run them here, wait out the ones a worker is
        executing."""
        for task in tasks:
            if task.try_steal():
                task.execute()
            else:
                while task.state is not TaskState.COMPLETED:
                    if self.errors:
                        raise self.errors[0]
                    time.sleep(0.0005)

    # ------------------------------------------------------------------

    def _worker_loop(self, worker: int) -> None:
        t_wait = time.perf_counter()
        while True:
            try:
                _, task = self.queue.pop(block=True, timeout=None)
            except QueueClosed:
                return
            t0 = time.perf_counter()
            self._m_idle.inc(t0 - t_wait)
            try:
                status = self._attempt(task, worker, t0)
            except BaseException as error:  # propagate via shutdown()
                with self._lock:
                    self._errors.append(error)
                self.queue.close()
                return
            if status == "retried":
                try:
                    self.submit(task)
                except QueueClosed:
                    return  # the engine went down during the backoff
            else:
                with self._lock:
                    self._executed += 1
            t_wait = time.perf_counter()
