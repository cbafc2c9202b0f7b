"""The data-parallel coordinator.

:class:`ParallelTrainer` owns the canonical network (the one that gets
checkpointed), spawns ``workers - 1`` child processes, and runs rounds
of *global-minibatch* gradient learning:

1. send each live worker the current parameter vector and its shard of
   the ``batch`` global sample indices (round-robin via
   :func:`repro.data.shard_indices`);
2. every process computes whole-model gradients for its samples (the
   coordinator itself is worker 0); a worker replies with one
   ``("grad", round, index, loss, gradient)`` message per sample, and
   the coordinator files each under its global index (between its own
   samples too, so no worker stalls on a full pipe);
3. the coordinator reduces the gradients **in index order**
   (:func:`repro.sync.summation.reduce_in_order`), divides by
   ``batch``, and applies one optimizer step.

Because the reduction order is a function of the batch — never of the
workers — the final checkpoint is bitwise identical for any worker
count, including ``workers=1``.

**Degradation.** A worker that dies mid-run (detected by a broken or
silent pipe) does not kill training: the gradients it sent before dying
are kept, the samples it left missing are recomputed by the coordinator
for the current round, the worker is dropped, and future rounds shard
over the survivors — same samples, same indices, same reduction, so the
checkpoint is unchanged.  The tolerated death count is governed by a
:class:`repro.resilience.RetryPolicy` (``max_retries`` deaths, with its
backoff between recoveries); one death past the budget raises
:class:`WorkerPoolBroken`.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.training import Trainer
from repro.data.provider import ShardedSampler, shard_indices
from repro.observability.metrics import get_registry
from repro.observability.tracing import (
    flight_dump,
    flight_note,
    get_tracer,
)
from repro.parallel.replica import ModelConfig, Replica
from repro.parallel.worker import worker_main
from repro.resilience.retry import RetryPolicy
from repro.sync.summation import reduce_in_order

__all__ = ["ParallelTrainer", "WorkerPoolBroken", "visible_cpus"]


class WorkerPoolBroken(RuntimeError):
    """More workers died than the retry policy tolerates, or a worker
    reported an unrecoverable error."""


def visible_cpus() -> int:
    """CPUs this process may run on (affinity-aware; >= 1)."""
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


class _Child:
    """Coordinator-side record of one spawned worker."""

    def __init__(self, worker_id: int, process, conn) -> None:
        self.worker_id = worker_id
        self.process = process
        self.conn = conn
        #: The round it last answered "done" to; -1 once "ready".
        self.answered: Optional[int] = None


class ParallelTrainer(Trainer):
    """Multi-process data-parallel training with a deterministic
    cross-process gradient reduction.

    The round loop — warm-up, ``lr_schedule``, checkpoints, the
    NaN/Inf rollback, validation, ``train.*`` metrics — is the
    inherited :meth:`repro.core.Trainer.run`; this class only supplies
    the cross-process update it drives (:meth:`_run_round`).

    Parameters
    ----------
    config:
        The model recipe every process builds its replica from.  With
        ``conv_mode="auto"`` the coordinator resolves the per-edge
        modes once and ships the resolved dict to the workers.
    provider_factory / provider_args:
        A picklable callable (and its arguments) constructing the data
        provider *inside each process* — providers hold volumes and RNG
        state that must not cross the spawn boundary.  Sampling
        determinism comes from :class:`repro.data.ShardedSampler`, so
        the factory needs only to be deterministic in its arguments.
    workers:
        Total processes including the coordinator (>= 1).
    batch:
        Global minibatch size per round — the determinism contract:
        results depend on ``batch``, never on ``workers``.
    retry_policy:
        Worker-death budget and backoff; default
        :class:`RetryPolicy()` (tolerates ``max_retries`` deaths).
    worker_timeout:
        Seconds to wait for a worker's per-round reply before declaring
        it dead.
    """

    def __init__(self, config: ModelConfig, provider_factory,
                 provider_args: tuple = (), workers: int = 1,
                 batch: int = 1,
                 retry_policy: Optional[RetryPolicy] = None,
                 worker_timeout: float = 300.0) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if batch < 1:
            raise ValueError(f"batch must be >= 1, got {batch}")
        self.workers = int(workers)
        self.batch = int(batch)
        self.provider_factory = provider_factory
        self.provider_args = tuple(provider_args)
        self.retry_policy = (retry_policy if retry_policy is not None
                             else RetryPolicy())
        self.worker_timeout = float(worker_timeout)

        self.replica = Replica.from_config(config)
        super().__init__(self.replica.network,
                         provider_factory(*self.provider_args))
        #: The exact config shipped to workers ("auto" modes resolved).
        self.config = config.resolved(self.network)
        self._sampler = ShardedSampler(self.provider, config.seed,
                                       self.batch)

        # The current round's per-sample results, by global index.
        self._round_index = -1
        self._grads: List[Optional[np.ndarray]] = []
        self._losses: List[float] = []
        self._children: List[_Child] = []
        self._closed = False
        self.worker_deaths = 0
        self._deaths_since_success = 0

        tracer = get_tracer()
        if tracer.enabled:
            # Stable process label for merged traces (pid 0); workers
            # label themselves "worker-N" inside worker_main.
            tracer.set_process("coordinator")

        reg = get_registry()
        self._m_workers = reg.gauge("parallel.workers")
        self._m_rounds = reg.counter("parallel.rounds")
        self._m_barrier = reg.histogram("parallel.barrier_wait_seconds")
        self._m_deaths = reg.counter("parallel.worker_deaths")
        self._m_reassigned = reg.counter("parallel.reassigned_samples")
        self._spawn_children()
        self._m_workers.set(1 + len(self._children))

    # ------------------------------------------------------------------
    # worker lifecycle
    # ------------------------------------------------------------------

    def _spawn_children(self) -> None:
        ctx = multiprocessing.get_context("spawn")
        for worker_id in range(1, self.workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            process = ctx.Process(
                target=worker_main,
                args=(worker_id, self.config, self.provider_factory,
                      self.provider_args, self.batch, child_conn),
                daemon=True, name=f"repro-worker-{worker_id}")
            process.start()
            child_conn.close()
            self._children.append(_Child(worker_id, process, parent_conn))
        deadline = time.monotonic() + self.worker_timeout
        for child in list(self._children):
            remaining = max(0.0, deadline - time.monotonic())
            if not self._receive(child, remaining):
                self._handle_death(child, phase="startup")

    def _receive(self, child: _Child, timeout: float) -> bool:
        """Wait until *child* has answered the current round ("ready"
        before the first); False means the child is dead (broken pipe,
        silent past timeout, or exited)."""
        deadline = time.monotonic() + timeout
        while child.answered != self._round_index:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            try:
                if not child.conn.poll(min(remaining, 0.2)):
                    if not child.process.is_alive():
                        return False
                    continue
                self._take(child, child.conn.recv())
            except (EOFError, OSError):
                return False
        return True

    def _drain(self) -> None:
        """Take every reply already waiting, so no worker blocks on a
        full pipe while this process computes its own samples."""
        for child in self._children:
            try:
                while child.conn.poll():
                    self._take(child, child.conn.recv())
            except (EOFError, OSError):
                pass  # a dead worker is noticed at the barrier

    def _take(self, child: _Child, message) -> None:
        """Act on one message from *child*: ``grad`` replies are filed
        under their global sample index, and anything from a round
        other than the current one is skipped."""
        kind = message[0]
        if kind == "spans":
            # A worker shipping its span buffer ahead of "done": adopt
            # the spans under the worker's process label.
            get_tracer().ingest(message[2], process=f"worker-{message[1]}")
        elif kind == "error":
            raise WorkerPoolBroken(
                f"worker {message[2]} failed in round {message[1]}:\n"
                f"{message[3]}")
        elif kind == "ready":
            child.answered = -1
        elif message[1] != self._round_index:
            pass  # stale: a reply to an earlier round
        elif kind == "grad":
            _, _, index, loss, grad = message
            self._losses[index] = loss
            self._grads[index] = grad
        else:
            child.answered = message[1]

    def _handle_death(self, child: _Child, phase: str) -> None:
        """Drop *child* from the pool, within the death budget."""
        self.worker_deaths += 1
        self._deaths_since_success += 1
        self._m_deaths.inc()
        flight_note("worker death", worker=child.worker_id, phase=phase)
        flight_dump(f"worker-death-{child.worker_id}")
        try:
            child.conn.close()
        except OSError:  # pragma: no cover - already broken
            pass
        child.process.join(timeout=5.0)
        if child.process.is_alive():  # pragma: no cover - stuck child
            child.process.terminate()
            child.process.join(timeout=5.0)
        self._children.remove(child)
        self._m_workers.set(1 + len(self._children))
        if self._deaths_since_success > self.retry_policy.max_retries:
            raise WorkerPoolBroken(
                f"{self.worker_deaths} worker death(s) exceed the retry "
                f"budget ({self.retry_policy.max_retries}); last death "
                f"during {phase}")
        backoff = self.retry_policy.backoff(self._deaths_since_success - 1)
        if backoff > 0:
            time.sleep(backoff)

    # ------------------------------------------------------------------
    # training
    # ------------------------------------------------------------------

    def _assignments(self) -> Dict[int, List[int]]:
        """Current shard per live process: position in the live list —
        coordinator first, then surviving children — drives the
        round-robin, so shards re-balance automatically as the pool
        shrinks.  (Assignment never affects results; only which process
        computes which globally-indexed sample.)"""
        live = [0] + [c.worker_id for c in self._children]
        return {worker_id: shard_indices(self.batch, len(live), position)
                for position, worker_id in enumerate(live)}

    def _run_round(self, round_index: int) -> float:
        """One global-minibatch update; returns the mean loss.

        *round_index* — the network's global update count — keys the
        ``(seed, round, index)`` sample stream, so a resumed or second
        ``run()`` continues the stream instead of restarting it.

        With tracing on, the whole round runs inside a ``round:N``
        span whose context is shipped to every worker in the round
        message — so coordinator-side gradient tasks (created on this
        thread) and worker-side spans (shipped back over the pipe)
        all hang off one per-round tree.
        """
        if self._closed:
            raise RuntimeError("trainer is closed")
        tracer = get_tracer()
        if not tracer.enabled:
            return self._round_body(round_index, None)
        with tracer.span(f"round:{round_index}", category="training",
                         round=round_index, workers=1 +
                         len(self._children)) as span:
            return self._round_body(round_index, span.context)

    def _round_body(self, round_index: int, round_ctx) -> float:
        tracer = get_tracer()
        self._round_index = round_index
        self._grads = [None] * self.batch
        self._losses = [0.0] * self.batch
        params = np.empty(self.replica.num_values)
        self.replica.read_params_into(params)
        assignments = self._assignments()
        for child in list(self._children):
            child.answered = None  # a rolled-back round reuses its index
            try:
                child.conn.send(
                    ("round", round_index, assignments[child.worker_id],
                     params, round_ctx))
            except (BrokenPipeError, OSError):
                self._handle_death(child, phase="dispatch")
        self._compute(round_index, assignments[0])
        wait_start = time.perf_counter()
        barrier_t0 = tracer.now() if tracer.enabled else 0.0
        for child in list(self._children):
            if not self._receive(child, self.worker_timeout):
                self._handle_death(child, phase=f"round {round_index}")
        barrier_wait = time.perf_counter() - wait_start
        if tracer.enabled and round_ctx is not None:
            tracer.record("barrier.wait", barrier_t0,
                          barrier_t0 + barrier_wait, category="training",
                          parent=round_ctx, round=round_index)
        # Recompute whatever the casualties left missing — samples are
        # globally indexed, so who computes them cannot change the result.
        missing = [i for i, g in enumerate(self._grads) if g is None]
        if missing:
            self._m_reassigned.inc(len(missing))
            self._compute(round_index, missing)
        self._deaths_since_success = 0
        mean_grad, mean_loss = self._reduce()
        self.replica.apply_update(mean_grad, self.network.optimizer)
        # The coordinator replica's own train_steps advanced the
        # counter once per *sample*; a round is one global update.
        self.network.rounds = round_index + 1
        self._m_rounds.inc()
        self._m_barrier.observe(barrier_wait)
        return mean_loss

    def _compute(self, round_index: int, indices: List[int]) -> None:
        """Fill the gradients and losses of *indices* on this process."""
        for i in indices:
            grad = np.empty(self.replica.num_values)
            self._losses[i] = self.replica.sample_gradient(
                self._sampler, round_index, i, grad)
            self._grads[i] = grad
            self._drain()

    # deterministic
    def _reduce(self) -> Tuple[np.ndarray, float]:
        """The round's mean gradient and mean loss, each summed in
        global index order (Algorithm 4's closing step, across
        processes)."""
        mean_grad = reduce_in_order(self._grads) / self.batch
        loss_total = 0.0
        for loss in self._losses:
            loss_total += loss
        return mean_grad, loss_total / self.batch

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Stop the workers and close the network (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for child in self._children:
            try:
                child.conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            try:
                child.conn.close()
            except OSError:  # pragma: no cover - already broken
                pass
        for child in self._children:
            child.process.join(timeout=10.0)
            if child.process.is_alive():  # pragma: no cover - stuck
                child.process.terminate()
                child.process.join(timeout=5.0)
        self._children.clear()
        self._m_workers.set(0)
        self.network.close()

    def __enter__(self) -> "ParallelTrainer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
