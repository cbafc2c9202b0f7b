"""Training loop driver (Section III, the outer iteration).

Couples a :class:`repro.core.Network` with a data provider (the orange
task of Fig 3) and runs rounds of gradient learning, recording losses
and timing in the same style as the paper's measurements ("first
running the gradient learning algorithm for 5 warm-up rounds and then
averaging the time required for the next 50 rounds").

Beyond the paper the loop is hardened for long unattended runs (see
``docs/robustness.md``):

* ``checkpoint_every``/``checkpoint_dir`` write periodic **atomic**
  checkpoints (``ckpt-<rounds>.npz``) via
  :func:`repro.core.serialization.save_network`;
* a **NaN/Inf loss guard** rolls the network back to the last good
  checkpoint, decays the learning rate, and re-runs the lost rounds —
  ``train.rollbacks`` in the metrics registry counts every rollback;
  runs diverging more than ``max_rollbacks`` times raise
  :class:`TrainingDiverged`;
* an installed :class:`repro.resilience.FaultPlan` can corrupt the
  loss (family ``"loss"``) to exercise the guard.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import List, Optional, Protocol, Tuple

import numpy as np

from repro.core.network import Network
from repro.observability.metrics import get_registry
from repro.resilience.faults import active_plan

__all__ = ["Sample", "DataProvider", "Trainer", "TrainingReport",
           "TrainingDiverged", "measure_seconds_per_update"]

#: One training example: (inputs, targets) in the formats Network accepts.
Sample = Tuple[object, object]


class TrainingDiverged(RuntimeError):
    """The loss went non-finite and recovery was impossible (no
    checkpoint to roll back to) or futile (rollback budget exhausted)."""


class DataProvider(Protocol):
    """The data-provider interface: yields one (inputs, targets) pair
    per call — the paper's task that 'obtains a training sample used
    for a single round of training'."""

    def sample(self) -> Sample:  # pragma: no cover - protocol
        ...


@dataclass
class TrainingReport:
    """Losses and timing gathered by :class:`Trainer.run`."""

    losses: List[float] = field(default_factory=list)
    round_seconds: List[float] = field(default_factory=list)
    #: (round index, validation loss) pairs when validation is enabled.
    validations: List[Tuple[int, float]] = field(default_factory=list)
    #: Times the NaN/Inf guard rolled back to a checkpoint.
    rollbacks: int = 0
    #: Checkpoint paths written, in order.
    checkpoints: List[str] = field(default_factory=list)
    #: Process count the run started with (1 = sequential trainer).
    workers: int = 1
    #: Global minibatch size per round (1 = sequential trainer).
    batch: int = 1
    #: Worker processes lost (and survived) during the run.
    worker_deaths: int = 0

    @property
    def rounds(self) -> int:
        return len(self.losses)

    @property
    def mean_seconds_per_update(self) -> float:
        return float(np.mean(self.round_seconds)) if self.round_seconds else 0.0

    def smoothed_losses(self, window: int = 10) -> List[float]:
        """Running mean of the loss curve (for monitoring convergence)."""
        if window < 1:
            raise ValueError("window must be >= 1")
        out: List[float] = []
        for i in range(len(self.losses)):
            lo = max(0, i - window + 1)
            out.append(float(np.mean(self.losses[lo:i + 1])))
        return out


class Trainer:
    """Runs gradient-learning rounds on a network.

    :meth:`run` is the only round loop; it drives :meth:`_run_round`,
    which subclasses override to change *how* one update is computed
    (:class:`repro.parallel.ParallelTrainer` spreads it over processes).
    """

    #: Stamped on every report; ``ParallelTrainer`` sets its own.
    workers = 1
    batch = 1
    worker_deaths = 0

    def __init__(self, network: Network, provider: DataProvider) -> None:
        self.network = network
        self.provider = provider

    def _run_round(self, round_index: int) -> float:
        """One update (sample, forward, backward, step); returns the
        loss.  *round_index* is the network's update count, the key a
        resumable sample stream is indexed by."""
        return self.network.train_step(*self.provider.sample())

    def run(self, rounds: int, warmup: int = 0,
            callback=None, lr_schedule=None,
            val_provider=None, validate_every: int = 0,
            val_samples: int = 4,
            checkpoint_every: int = 0,
            checkpoint_dir=None,
            max_rollbacks: int = 3,
            rollback_lr_decay: float = 0.5) -> TrainingReport:
        """Train for *rounds* recorded rounds after *warmup* unrecorded
        ones.

        *callback(round_index, loss)* is invoked per recorded round;
        *lr_schedule(round_index) -> float*, if given, sets the
        network's learning rate before each recorded round (e.g. step
        decay ``lambda i: 1e-3 * 0.5 ** (i // 100)``).

        With *val_provider* and ``validate_every > 0``, the network is
        evaluated (forward passes only — no weight updates) on
        *val_samples* held-out samples every *validate_every* rounds;
        results land in ``report.validations``.

        With ``checkpoint_every > 0`` (requires *checkpoint_dir*) an
        atomic checkpoint is written after every ``checkpoint_every``
        recorded rounds, plus once before the first round and once at
        the end — the files ``repro train --resume`` restarts from.  A
        non-finite loss then rolls the run back to the last checkpoint
        (re-running the lost rounds) with the learning rate scaled by
        ``rollback_lr_decay``; more than ``max_rollbacks`` rollbacks
        raise :class:`TrainingDiverged`, as does any non-finite loss
        when checkpointing is off.

        ``round_seconds`` times the whole update, drawing the sample
        included (the data provider is a task of the round, Fig 3).
        """
        if rounds < 0 or warmup < 0:
            raise ValueError("rounds and warmup must be >= 0")
        if validate_every and val_provider is None:
            raise ValueError("validate_every needs a val_provider")
        if checkpoint_every < 0:
            raise ValueError("checkpoint_every must be >= 0")
        if checkpoint_every and checkpoint_dir is None:
            raise ValueError("checkpoint_every needs a checkpoint_dir")
        if not 0.0 < rollback_lr_decay <= 1.0:
            raise ValueError(
                f"rollback_lr_decay must be in (0, 1], got {rollback_lr_decay}")
        from repro.core.serialization import load_network, save_network

        reg = get_registry()
        m_rounds = reg.counter("train.rounds")
        m_loss = reg.gauge("train.loss")
        m_seconds = reg.histogram("train.seconds_per_update")
        m_rollbacks = reg.counter("train.rollbacks")
        for _ in range(warmup):
            self._run_round(self.network.rounds)
        report = TrainingReport(workers=self.workers, batch=self.batch)

        last_ckpt: Optional[Tuple[str, int]] = None  # (path, recorded rounds)
        lr_scale = 1.0

        def write_checkpoint() -> None:
            nonlocal last_ckpt
            path = os.path.join(
                os.fspath(checkpoint_dir),
                f"ckpt-{self.network.rounds:08d}.npz")
            save_network(self.network, path)
            last_ckpt = (path, len(report.losses))
            report.checkpoints.append(path)

        if checkpoint_every:
            os.makedirs(os.fspath(checkpoint_dir), exist_ok=True)
            write_checkpoint()  # rollback target before the first round

        while len(report.losses) < rounds:
            i = len(report.losses)
            if lr_schedule is not None:
                self.network.set_learning_rate(
                    float(lr_schedule(i)) * lr_scale)
            t0 = time.perf_counter()
            loss = self._run_round(self.network.rounds)
            seconds = time.perf_counter() - t0
            plan = active_plan()
            if plan is not None:
                loss = plan.corrupt("loss", loss, name=f"round {i}")
            if not np.isfinite(loss):
                report.rollbacks += 1
                m_rollbacks.inc()
                if report.rollbacks > max_rollbacks:
                    raise TrainingDiverged(
                        f"loss non-finite after {max_rollbacks} rollbacks "
                        f"(round {i})")
                if last_ckpt is None:
                    raise TrainingDiverged(
                        f"loss became non-finite at round {i} and no "
                        "checkpoint exists to roll back to (enable "
                        "checkpoint_every)")
                # Drain poisoned deferred updates before restoring, so
                # they cannot fire later and re-corrupt the weights.
                self.network.synchronize()
                load_network(self.network, last_ckpt[0])
                del report.losses[last_ckpt[1]:]
                del report.round_seconds[last_ckpt[1]:]
                report.validations = [
                    (r, v) for r, v in report.validations if r < last_ckpt[1]]
                lr_scale *= rollback_lr_decay
                if lr_schedule is None:
                    self.network.set_learning_rate(
                        self.network.optimizer.learning_rate
                        * rollback_lr_decay)
                continue
            report.round_seconds.append(seconds)
            report.losses.append(loss)
            m_rounds.inc()
            m_loss.set(loss)
            m_seconds.observe(seconds)
            if callback is not None:
                callback(i, loss)
            if validate_every and (i + 1) % validate_every == 0:
                report.validations.append(
                    (i, self.validate(val_provider, val_samples)))
            if checkpoint_every and len(report.losses) % checkpoint_every == 0:
                write_checkpoint()
        if checkpoint_every and last_ckpt[1] != len(report.losses):
            write_checkpoint()  # final partial interval
        report.worker_deaths = self.worker_deaths
        return report

    def validate(self, provider: DataProvider, samples: int = 4) -> float:
        """Mean loss over *samples* held-out samples, without training
        (forward passes only; weights untouched)."""
        if samples < 1:
            raise ValueError("samples must be >= 1")
        net = self.network
        total = 0.0
        for _ in range(samples):
            inputs, targets = provider.sample()
            outputs = net.forward(inputs)
            targets = net._normalize(targets, "target")
            value, _ = net.loss.joint_value_and_gradient(outputs, targets)
            total += value
        return total / samples


def measure_seconds_per_update(network: Network, provider: DataProvider,
                               warmup: int = 5, rounds: int = 50) -> float:
    """The paper's timing protocol: warm up, then average wall time per
    update over the measured rounds."""
    report = Trainer(network, provider).run(rounds=rounds, warmup=warmup)
    return report.mean_seconds_per_update
