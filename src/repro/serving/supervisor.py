"""Supervised serving worker processes.

One :class:`Supervisor` owns N spawned worker processes, each running
:func:`serve_worker_main`: a :class:`~repro.serving.registry.
ModelRegistry` with prewarmed twins behind a duplex pipe, running what
the router (:class:`~repro.serving.fleet.FleetServer`) sends on a few
threads.  The router admits each request once and bounds a worker's
load with its in-flight window; it never touches processes directly,
it talks to this module.

Wire protocol (parent → worker):

    ("ping", seq)          → answered with ("pong", seq) from the
                             worker's *main loop* — a wedged main loop
                             stops answering, which is exactly how the
                             heartbeat watchdog detects hangs.
    ("request", id, model, volume, timeout)
                           → run dense inference on *volume*, then
                             ("result", id, dense) — or ("error", id,
                             kind, message) with kind in {"deadline",
                             "unknown-model", "bad-request", "error"}.
    ("stop",)              → finish in-flight requests, then exit 0.

Volumes travel pickled inside these messages.  A volume larger than
the pipe's buffer blocks its sender until the worker reads it, so a
control message (ping, stop) never waits behind one: the supervisor
skips a ping and terminates rather than stops a worker whose send lock
is busy or whose pipe has no room (:func:`_send_control`).

Worker → parent additionally sends ``("ready", worker_id)`` once its
models are built and prewarmed — only then does the supervisor mark it
healthy and route traffic to it.

Failure handling (the whole point):

* **Crash** — the worker process dies (e.g. an injected
  ``fail:serve_worker`` fault calls ``os._exit``).  The reader thread
  sees pipe EOF, the monitor joins the corpse, fires
  ``on_worker_down`` (the router requeues that worker's requests),
  and schedules a restart with exponential backoff.  Restarted
  workers rebuild and re-prewarm every model from the picklable spec
  list before reporting ready.
* **Hang** — the worker's main loop stops answering pings
  (``hang:serve_worker`` sleeps in the request path).  After
  ``heartbeat_timeout`` seconds without a pong the monitor declares
  it hung, kills it, and takes the same death path.  Requests that
  are merely *slow* don't trip this: inference runs on the worker's
  request threads while the main loop keeps answering pings.
* **Restart storm** — more than ``breaker_restarts`` deaths within
  ``breaker_window`` seconds trips the circuit breaker: the worker is
  **quarantined** (no further restarts, traffic permanently rerouted)
  until an operator intervenes.  A poisoned model that kills every
  replacement can therefore take down at most one worker's capacity.

Every transition emits ``fleet.*`` metrics, a flight-recorder note,
and (on death/quarantine) a flight dump.
"""

from __future__ import annotations

import multiprocessing
import os
import queue
import select
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.analysis.runtime import make_lock
from repro.observability.metrics import get_registry
from repro.observability.tracing import (
    flight_dump,
    flight_note,
    get_tracer,
)
from repro.resilience.faults import (
    CRASH_EXIT_CODE,
    FaultPlan,
    InjectedFault,
    active_plan,
    install_plan,
    worker_family,
)
from repro.serving.lifecycle import DeadlineExceeded, ServingError
from repro.serving.registry import ModelRegistry, ModelSpec
from repro.serving.specialize import SpecializationPlan
from repro.serving.tiler import DEFAULT_TILE_VOXELS

__all__ = [
    "CRASH_EXIT_CODE",
    "SERVE_WORKER_FAMILY",
    "WorkerConfig",
    "SupervisorConfig",
    "Supervisor",
    "serve_worker_main",
    "run_request",
    "error_from_kind",
]

#: Fault family checked once per request dispatched to a fleet worker;
#: the per-worker variant is ``worker_family(SERVE_WORKER_FAMILY, id)``.
SERVE_WORKER_FAMILY = "serve_worker"

#: Worker lifecycle states, as reported by ``repro fleet status`` and
#: ``/healthz``.
STATE_STARTING = "starting"
STATE_HEALTHY = "healthy"
STATE_RESTARTING = "restarting"
STATE_QUARANTINED = "quarantined"
#: Gracefully scaled down: drained, exited, never restarted.
STATE_RETIRED = "retired"
STATE_STOPPED = "stopped"


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a (re)spawned worker needs, picklable.

    Every warm model a worker builds pins its kernel spectra with a
    prewarming pass; ``prewarm_shape`` only decides whether those
    builds happen before the worker reports ready.  ``faults`` installs
    a :class:`FaultPlan` inside the worker process (occurrence counts
    restart with the process — that is what makes crash loops
    deterministic).
    """

    specs: Tuple[ModelSpec, ...]
    #: Per-model ZNNi specialization plans (docs/serving.md "Per-layer
    #: specialization"); applied after registration, so respawned
    #: workers serve the same specialized tile/mode mix as the first.
    plans: Tuple[SpecializationPlan, ...] = ()
    #: Request threads (the router's in-flight window bounds the load).
    threads: int = 1
    tile_voxels: int = DEFAULT_TILE_VOXELS
    max_models: int = 4
    #: Volume shape to build every model's warm twin for before
    #: reporting ready (None: the first request pays the build).
    prewarm_shape: Optional[Tuple[int, int, int]] = None
    faults: Optional[str] = None


@dataclass(frozen=True)
class SupervisorConfig:
    """Health-check and restart policy knobs."""

    heartbeat_interval: float = 0.25
    #: Seconds without a pong before a healthy worker is declared hung.
    heartbeat_timeout: float = 5.0
    #: Seconds a starting worker may take to report ready.
    start_timeout: float = 120.0
    restart_backoff: float = 0.05
    restart_backoff_factor: float = 2.0
    restart_backoff_max: float = 2.0
    #: Restart-storm circuit breaker: quarantine a worker after this
    #: many deaths within ``breaker_window`` seconds.
    breaker_restarts: int = 5
    breaker_window: float = 30.0


def _error_kind(exc: BaseException) -> str:
    """Classify a worker-side failure for the wire."""
    if isinstance(exc, DeadlineExceeded):
        return "deadline"
    if isinstance(exc, KeyError):
        return "unknown-model"
    if isinstance(exc, (ValueError, TypeError)):
        return "bad-request"
    return "error"


def error_from_kind(kind: str, message: str) -> BaseException:
    """Router-side inverse of :func:`_error_kind`."""
    if kind == "deadline":
        return DeadlineExceeded(message)
    if kind == "unknown-model":
        return KeyError(message)
    if kind == "bad-request":
        return ValueError(message)
    return ServingError(message)


def _send(conn, send_lock, message: tuple) -> bool:
    """Send *message* under *send_lock*; False if the pipe is broken."""
    with send_lock:
        try:
            conn.send(message)
            return True
        except (BrokenPipeError, OSError):
            return False


def _send_control(conn, send_lock, message: tuple) -> bool:
    """Send a small control *message* only if that cannot block.

    False, without waiting, when a volume send holds *send_lock* or
    the pipe has no room left (its reader is wedged), or when the pipe
    is broken.  The watchdog judges a worker on the age of its last
    pong, so a skipped ping costs nothing.
    """
    if not send_lock.acquire(blocking=False):
        return False
    try:
        room = select.poll()
        room.register(conn, select.POLLOUT)
        if not room.poll(0):
            return False
        conn.send(message)
        return True
    except (BrokenPipeError, OSError):
        return False
    finally:
        send_lock.release()


def run_request(registry: ModelRegistry, tile_voxels: int,
                message: tuple, deadline: Optional[float]) -> tuple:
    """Serve one ``request`` *message* from *registry*; return the
    reply carrying the dense output (every failure becomes an error
    reply, so it never raises).  *deadline* (absolute monotonic, None:
    unbounded) is checked once, before any work."""
    req_id, model, volume = message[1:4]
    try:
        if deadline is not None and time.monotonic() > deadline:
            raise DeadlineExceeded(
                f"request {req_id} waited past its deadline for a "
                f"worker thread")
        dense = registry.run(model, volume, tile_voxels)
    except Exception as exc:
        return ("error", req_id, _error_kind(exc), str(exc))
    return ("result", req_id, dense)


def serve_worker_main(worker_id: int, config: WorkerConfig,
                      conn) -> None:
    """Run one serving worker until told to stop (the spawn target).

    The main loop only reads the pipe: it answers pings itself and
    hands each request to one of ``config.threads`` threads, which
    sends its own reply under the one send lock.  On ``stop`` the
    requests already received finish before the worker exits.
    """
    tracer = get_tracer()
    tracer.set_process(f"serve-worker-{worker_id}")
    if config.faults:
        install_plan(FaultPlan.from_string(config.faults))
    registry = ModelRegistry(max_models=config.max_models, num_workers=1)
    for spec in config.specs:
        registry.register(spec)
    for splan in config.plans:
        registry.set_plan(splan)
    if config.prewarm_shape is not None:
        registry.prewarm_all(config.prewarm_shape,
                             tile_voxels=config.tile_voxels)
    # One send lock for the main loop and the request threads; on a
    # broken pipe (parent gone) the next recv ends the loop.
    send_lock = make_lock("serving.worker.send")

    def serve(message: tuple, deadline: Optional[float]) -> None:
        _send(conn, send_lock, run_request(
            registry, config.tile_voxels, message, deadline))

    threads = ThreadPoolExecutor(
        config.threads, thread_name_prefix=f"serve-worker-{worker_id}")
    try:
        _send(conn, send_lock, ("ready", worker_id))
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                break  # parent died; nothing to answer to
            kind = message[0]
            if kind == "ping":
                _send(conn, send_lock, ("pong", message[1]))
            elif kind == "stop":
                break
            elif kind == "request":
                timeout = message[4]
                deadline = (None if timeout is None
                            else time.monotonic() + timeout)
                plan = active_plan()
                if plan is not None:
                    # A "fail" spec crashes the process mid-request
                    # (caught below -> os._exit); a "hang" spec sleeps
                    # *here*, in the main loop, so pings go unanswered
                    # and the watchdog fires.
                    name = f"worker-{worker_id} request {message[1]}"
                    plan.check(SERVE_WORKER_FAMILY, name)
                    plan.check(
                        worker_family(SERVE_WORKER_FAMILY, worker_id),
                        name)
                threads.submit(serve, message, deadline)
    except InjectedFault:
        # Simulated hard crash: no goodbye, no cleanup — the supervisor
        # must cope with exactly this.
        os._exit(CRASH_EXIT_CODE)
    finally:
        threads.shutdown(wait=True)  # finish every received request
        registry.close()
        conn.close()


class _WorkerRecord:
    """Supervisor-side state of one worker slot (all fields guarded by
    the supervisor lock unless noted)."""

    def __init__(self, worker_id: int) -> None:
        self.worker_id = worker_id
        self.generation = 0
        self.process = None
        self.conn = None
        #: Serialises parent->worker sends (request dispatch vs pings
        #: and stop); taken *after* the supervisor lock is released,
        #: never inside.  Only dispatch waits for it.
        self.send_lock = make_lock("serving.supervisor.worker_send")
        self.state = STATE_STARTING
        self.restarts = 0
        self.restart_times: deque = deque()
        self.last_restart_reason = ""
        self.last_pong = 0.0
        self.started_at = 0.0
        #: Restart due at this monotonic time (backoff), or None.
        self.restart_at: Optional[float] = None
        #: Reason to attribute to the next death event (set when the
        #: watchdog kills a hung worker, so EOF isn't misread as crash).
        self.pending_reason: Optional[str] = None


class Supervisor:
    """Spawns, health-checks, restarts and quarantines fleet workers.

    Callbacks (all invoked *without* the supervisor lock held):

    ``on_message(worker_id, message)``
        Non-heartbeat worker replies (results/errors) — the router's
        completion path.
    ``on_worker_up(worker_id)``
        The worker reported ready (first start or after a restart).
    ``on_worker_down(worker_id, reason)``
        The worker's process is confirmed dead (already joined) or
        quarantined; the router must requeue everything it had
        dispatched there.
    """

    def __init__(self, worker_config: WorkerConfig, num_workers: int,
                 config: Optional[SupervisorConfig] = None,
                 on_message: Optional[Callable] = None,
                 on_worker_up: Optional[Callable] = None,
                 on_worker_down: Optional[Callable] = None) -> None:
        if num_workers < 1:
            raise ValueError(
                f"num_workers must be >= 1, got {num_workers}")
        self.worker_config = worker_config
        self.num_workers = num_workers
        self.config = config or SupervisorConfig()
        self.on_message = on_message or (lambda wid, msg: None)
        self.on_worker_up = on_worker_up or (lambda wid: None)
        self.on_worker_down = on_worker_down or (lambda wid, reason: None)
        self._ctx = multiprocessing.get_context("spawn")
        self._lock = make_lock("serving.supervisor")
        self._records: Dict[int, _WorkerRecord] = {}  # guarded-by: _lock
        self._stopping = False  # guarded-by: _lock
        self._ping_seq = 0  # guarded-by: _lock
        self._events: "queue.Queue" = queue.Queue()
        self._monitor: Optional[threading.Thread] = None
        reg = get_registry()
        self._m_workers = reg.gauge("fleet.workers")
        self._m_healthy = reg.gauge("fleet.workers.healthy")
        self._m_quarantined = reg.gauge("fleet.workers.quarantined")
        self._m_deaths = reg.counter("fleet.worker_deaths")
        self._m_restarts = reg.counter("fleet.restarts")
        self._m_missed = reg.counter("fleet.heartbeats.missed")

    # -- lifecycle -----------------------------------------------------

    def start(self) -> "Supervisor":
        with self._lock:
            if self._records:
                return self
            for worker_id in range(self.num_workers):
                self._records[worker_id] = _WorkerRecord(worker_id)
        self._m_workers.set(self.num_workers)
        for worker_id in range(self.num_workers):
            self._spawn(worker_id)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="fleet-supervisor",
            daemon=True)
        self._monitor.start()
        return self

    def wait_ready(self, timeout: float = 120.0,
                   min_workers: Optional[int] = None) -> bool:
        """Block until at least *min_workers* (default: all) workers
        are healthy; False on timeout."""
        want = self.num_workers if min_workers is None else min_workers
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            if len(self.healthy_ids()) >= want:
                return True
            time.sleep(0.01)
        return len(self.healthy_ids()) >= want

    def stop(self) -> None:
        with self._lock:
            if self._stopping:
                return
            self._stopping = True
            records = list(self._records.values())
        self._stop_processes(records, join_timeout=5.0)
        if self._monitor is not None:
            self._monitor.join(timeout=5.0)
            self._monitor = None
        with self._lock:
            for record in self._records.values():
                record.state = STATE_STOPPED
        self._m_healthy.set(0)

    def _stop_processes(self, records: list,
                        join_timeout: float) -> bool:
        """Send ``stop`` to each record's worker so it drains, join it
        (terminating it if still alive), then drop its pipe.  A worker
        the stop cannot reach at once (a volume send to it is stuck) is
        terminated instead.  True when every worker exited within
        *join_timeout*."""
        with self._lock:
            targets = [(record, record.conn, record.process)
                       for record in records]
        for record, conn, process in targets:
            # No conn: a dying worker, the join settles it.
            if conn is not None and not _send_control(
                    conn, record.send_lock, ("stop",)):
                process.terminate()
        clean = True
        for _, _, process in targets:
            if process is None:
                continue
            process.join(timeout=join_timeout)
            if process.is_alive():  # pragma: no cover - stuck drain
                clean = False
                process.terminate()
                process.join(timeout=2.0)
        with self._lock:
            for record, _, _ in targets:
                # Dropped, not closed: the reader may still be reading
                # the last reply, and the pipe closes with the last
                # reference to it.
                record.conn = None
        return clean

    # -- scaling -------------------------------------------------------

    def add_worker(self) -> int:
        """Allocate a new worker slot (the next unused id) without
        spawning it yet.

        Two-step on purpose: the router must create the new id's
        in-flight window (``_inflight[wid]``) and per-worker metrics
        *before* the process can report ready, so it calls
        :meth:`spawn_worker` once its own structures exist.
        """
        with self._lock:
            if self._stopping:
                raise RuntimeError("supervisor is stopping")
            if not self._records:
                raise RuntimeError("supervisor is not started")
            worker_id = max(self._records) + 1
            record = _WorkerRecord(worker_id)
            # A fresh slot must not trip the not-ready watchdog while
            # the caller is still wiring it up.
            record.started_at = time.monotonic()
            self._records[worker_id] = record
        self._update_gauges()
        flight_note("fleet worker slot added", worker=worker_id)
        return worker_id

    def spawn_worker(self, worker_id: int) -> None:
        """Start the process for a slot created by
        :meth:`add_worker`."""
        with self._lock:
            record = self._records.get(worker_id)
            if record is None:
                raise KeyError(f"unknown worker {worker_id}")
            if record.process is not None:
                raise RuntimeError(
                    f"worker {worker_id} already spawned")
        self._spawn(worker_id)

    def retire_worker(self, worker_id: int,
                      join_timeout: float = 10.0) -> bool:
        """Gracefully retire a worker: mark it RETIRED (its death is
        expected — no restart, no down-callback), send ``stop`` so it
        drains local in-flight requests (results still flow back),
        then join the process.  True when it exited within
        *join_timeout*."""
        with self._lock:
            record = self._records.get(worker_id)
            if record is None:
                raise KeyError(f"unknown worker {worker_id}")
            if record.state in (STATE_RETIRED, STATE_STOPPED):
                return True
            # Mark before sending stop: the reader's EOF event must
            # find the state already RETIRED or _handle_death would
            # schedule a restart.
            record.state = STATE_RETIRED
            record.restart_at = None
        flight_note("fleet worker retiring", worker=worker_id)
        clean = self._stop_processes([record], join_timeout)
        self._update_gauges()
        return clean

    # -- routing surface ----------------------------------------------

    def healthy_ids(self) -> list:
        with self._lock:
            return [wid for wid, record in self._records.items()
                    if record.state == STATE_HEALTHY]

    def is_healthy(self, worker_id: int) -> bool:
        with self._lock:
            record = self._records.get(worker_id)
            return record is not None and record.state == STATE_HEALTHY

    def send(self, worker_id: int, message: tuple) -> bool:
        """Send *message* to a healthy worker; False if it is not
        healthy or the pipe is already broken (caller reroutes)."""
        with self._lock:
            record = self._records.get(worker_id)
            if record is None or record.state != STATE_HEALTHY:
                return False
            conn = record.conn
        return _send(conn, record.send_lock, message)

    def status(self) -> Dict[str, dict]:
        """Per-worker state for ``/healthz`` and ``repro fleet
        status``."""
        now = time.monotonic()
        with self._lock:
            return {
                str(wid): {
                    "state": record.state,
                    "pid": (record.process.pid
                            if record.process is not None else None),
                    "restarts": record.restarts,
                    "last_restart_reason": record.last_restart_reason,
                    "uptime_seconds": (
                        round(now - record.started_at, 3)
                        if record.state == STATE_HEALTHY else 0.0),
                }
                for wid, record in sorted(self._records.items())
            }

    # -- spawning and monitoring --------------------------------------

    def _spawn(self, worker_id: int) -> None:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=serve_worker_main,
            args=(worker_id, self.worker_config, child_conn),
            name=f"serve-worker-{worker_id}", daemon=True)
        process.start()
        child_conn.close()
        with self._lock:
            record = self._records[worker_id]
            record.generation += 1
            generation = record.generation
            record.process = process
            record.conn = parent_conn
            record.state = STATE_STARTING
            record.started_at = time.monotonic()
            record.last_pong = record.started_at
            record.restart_at = None
            record.pending_reason = None
        reader = threading.Thread(
            target=self._reader_loop,
            args=(worker_id, generation, parent_conn),
            name=f"fleet-reader-{worker_id}", daemon=True)
        reader.start()

    def _reader_loop(self, worker_id: int, generation: int,
                     conn) -> None:
        """Demultiplex one worker's replies until its pipe dies."""
        while True:
            try:
                message = conn.recv()
            except (EOFError, OSError):
                self._events.put(("died", worker_id, generation))
                return
            kind = message[0]
            if kind == "ready":
                became_healthy = False
                with self._lock:
                    record = self._records.get(worker_id)
                    # Only a starting worker becomes healthy: one
                    # retired while it prewarmed stays retired.
                    if (record is not None
                            and record.generation == generation
                            and record.state == STATE_STARTING
                            and not self._stopping):
                        record.state = STATE_HEALTHY
                        record.last_pong = time.monotonic()
                        became_healthy = True
                if became_healthy:
                    self._update_gauges()
                    flight_note("fleet worker ready", worker=worker_id,
                                generation=generation)
                    self.on_worker_up(worker_id)
            elif kind == "pong":
                with self._lock:
                    record = self._records.get(worker_id)
                    if (record is not None
                            and record.generation == generation):
                        record.last_pong = time.monotonic()
            else:
                self.on_message(worker_id, message)

    def _monitor_loop(self) -> None:
        """Heartbeats, hang detection, death handling, backoff
        restarts — one thread, no sleeps under any lock."""
        cfg = self.config
        while True:
            try:
                event = self._events.get(timeout=cfg.heartbeat_interval)
            except queue.Empty:
                event = None
            with self._lock:
                if self._stopping:
                    return
            if event is not None:
                _, worker_id, generation = event
                self._handle_death(worker_id, generation)
            self._heartbeat_tick()
            self._restart_due()

    def _heartbeat_tick(self) -> None:
        cfg = self.config
        now = time.monotonic()
        to_ping = []
        to_kill = []
        with self._lock:
            self._ping_seq += 1
            seq = self._ping_seq
            for record in self._records.values():
                if record.state == STATE_HEALTHY:
                    if now - record.last_pong > cfg.heartbeat_timeout:
                        record.pending_reason = (
                            f"hang: no heartbeat for "
                            f"{now - record.last_pong:.2f}s")
                        to_kill.append(record.process)
                        self._m_missed.inc()
                    else:
                        to_ping.append((record.conn, record.send_lock))
                elif record.state == STATE_STARTING:
                    if now - record.started_at > cfg.start_timeout:
                        record.pending_reason = (
                            f"hang: not ready after "
                            f"{cfg.start_timeout:.0f}s")
                        to_kill.append(record.process)
        for conn, send_lock in to_ping:
            # A broken pipe is the reader's to report, as a death; a
            # ping that would wait is skipped.
            _send_control(conn, send_lock, ("ping", seq))
        for process in to_kill:
            # Killing closes the pipe; the reader thread turns that
            # into a death event with the pending_reason attached.
            if process is not None and process.is_alive():
                process.terminate()

    def _handle_death(self, worker_id: int, generation: int) -> None:
        cfg = self.config
        with self._lock:
            record = self._records.get(worker_id)
            if record is None or record.generation != generation:
                return  # stale event from a previous incarnation
            if record.state in (STATE_QUARANTINED, STATE_RETIRED,
                                STATE_STOPPED):
                return  # expected death (or already written off)
            process = record.process
            reason = record.pending_reason
        # Join OUTSIDE the lock, and before telling anyone: the router
        # hears of a death only once the process is gone.
        if process is not None:
            process.join(timeout=5.0)
            if process.is_alive():  # pragma: no cover - kill escalation
                process.kill()
                process.join(timeout=2.0)
        if reason is None:
            code = process.exitcode if process is not None else None
            if code == CRASH_EXIT_CODE:
                reason = "crash: injected fault"
            else:
                reason = f"crash: exit code {code}"
        self._m_deaths.inc()
        flight_note("fleet worker death", worker=worker_id,
                    reason=reason)
        now = time.monotonic()
        with self._lock:
            record.restarts += 1
            record.last_restart_reason = reason
            record.restart_times.append(now)
            while (record.restart_times
                   and now - record.restart_times[0]
                   > cfg.breaker_window):
                record.restart_times.popleft()
            storm = len(record.restart_times) >= cfg.breaker_restarts
            if storm or self._stopping:
                record.state = (STATE_QUARANTINED if storm
                                else STATE_STOPPED)
                record.restart_at = None
            else:
                record.state = STATE_RESTARTING
                backoff = min(
                    cfg.restart_backoff
                    * cfg.restart_backoff_factor
                    ** max(len(record.restart_times) - 1, 0),
                    cfg.restart_backoff_max)
                record.restart_at = now + backoff
        self._update_gauges()
        flight_dump(f"fleet-worker-death-{worker_id}")
        if storm:
            flight_note("fleet worker quarantined", worker=worker_id,
                        restarts=record.restarts, reason=reason)
            flight_dump(f"fleet-worker-quarantined-{worker_id}")
        self.on_worker_down(worker_id, reason)

    def _restart_due(self) -> None:
        now = time.monotonic()
        due = []
        with self._lock:
            if self._stopping:
                return
            for record in self._records.values():
                if (record.state == STATE_RESTARTING
                        and record.restart_at is not None
                        and now >= record.restart_at):
                    due.append(record.worker_id)
        for worker_id in due:
            self._m_restarts.inc()
            flight_note("fleet worker restarting", worker=worker_id)
            self._spawn(worker_id)

    def _update_gauges(self) -> None:
        with self._lock:
            healthy = sum(1 for r in self._records.values()
                          if r.state == STATE_HEALTHY)
            quarantined = sum(1 for r in self._records.values()
                              if r.state == STATE_QUARANTINED)
            slots = sum(1 for r in self._records.values()
                        if r.state not in (STATE_RETIRED,
                                           STATE_STOPPED))
        self._m_workers.set(slots)
        self._m_healthy.set(healthy)
        self._m_quarantined.set(quarantined)
