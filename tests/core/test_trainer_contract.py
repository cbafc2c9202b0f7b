"""The round-loop contract, run over both trainers.

``repro.core.Trainer.run`` is the only round loop; the in-process
``Trainer`` and the multi-process ``ParallelTrainer`` differ only in the
``_run_round`` hook it drives.  Every case below therefore runs twice —
once per trainer — and asserts the same observable behaviour: checkpoint
cadence and names, callback / warm-up / ``lr_schedule`` / validation,
the NaN/Inf guard with and without checkpoints, the rollback budget,
round counting across ``run()`` calls and the ``train.*`` metrics.

The data-parallel side runs ``workers=1`` (no child processes — the
same shared-memory path, kept tier-1 fast) with ``batch=2``, so a
per-sample round count would show up as a doubled ``network.rounds``.
"""

import numpy as np
import pytest

from repro.core import Trainer, TrainingDiverged, state_digest
from repro.core.serialization import checkpoint_digest
from repro.data.provider import RandomProvider
from repro.observability import MetricsRegistry, set_registry
from repro.parallel import ModelConfig, ParallelTrainer
from repro.resilience import FaultPlan, clear_plan, install_plan

INPUT = (10, 10, 10)
OUT = (8, 8, 8)
CFG = ModelConfig(
    input_shape=INPUT,
    spec="CT",
    layered_kwargs={"width": 2, "kernel": 3, "transfer": "tanh",
                    "final_transfer": "tanh", "output_nodes": 1},
    loss="euclidean",
    seed=13,
    learning_rate=0.04,
    momentum=0.9)
PROVIDER_ARGS = (INPUT, OUT, False, 7)  # seeded: both streams repeat


@pytest.fixture(autouse=True)
def clean_faults():
    clear_plan()
    yield
    clear_plan()


@pytest.fixture
def registry():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    yield fresh
    set_registry(previous)


@pytest.fixture(params=["in-process", "data-parallel"])
def make_trainer(request, registry):
    """Factory of fresh trainers of the parametrised kind, all closed
    at teardown."""
    to_close = []

    def make():
        if request.param == "in-process":
            trainer = Trainer(CFG.build_network(),
                              RandomProvider(*PROVIDER_ARGS))
            to_close.append(trainer.network)
        else:
            trainer = ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS,
                                      workers=1, batch=2)
            to_close.append(trainer)
        return trainer

    yield make
    for resource in to_close:
        resource.close()


def names(paths):
    return [p.rsplit("/", 1)[-1] for p in paths]


class TestCheckpoints:
    @pytest.mark.parametrize("rounds,expected", [
        # before the first round, every 2, and the final partial one
        (5, ["ckpt-00000000.npz", "ckpt-00000002.npz",
             "ckpt-00000004.npz", "ckpt-00000005.npz"]),
        # an exact multiple ends on the cadence checkpoint, not a copy
        (4, ["ckpt-00000000.npz", "ckpt-00000002.npz",
             "ckpt-00000004.npz"]),
    ])
    def test_cadence_and_names(self, make_trainer, tmp_path, rounds,
                               expected):
        trainer = make_trainer()
        report = trainer.run(rounds, checkpoint_every=2,
                             checkpoint_dir=tmp_path)
        assert sorted(p.name for p in tmp_path.iterdir()) == expected
        assert report.checkpoints == [str(tmp_path / n) for n in expected]
        assert report.rounds == rounds
        assert len(report.round_seconds) == rounds
        assert all(t > 0 for t in report.round_seconds)
        assert (checkpoint_digest(report.checkpoints[-1])
                == state_digest(trainer.network))

    def test_report_is_stamped_with_the_trainer_shape(self, make_trainer):
        trainer = make_trainer()
        report = trainer.run(1)
        assert (report.workers, report.batch) == (trainer.workers,
                                                  trainer.batch)
        assert report.worker_deaths == 0


class TestRoundLoop:
    def test_callback_per_recorded_round_and_warmup_unrecorded(
            self, make_trainer, registry):
        trainer = make_trainer()
        seen = []
        report = trainer.run(rounds=3, warmup=2,
                             callback=lambda i, loss: seen.append((i, loss)))
        assert seen == list(enumerate(report.losses))
        assert report.rounds == 3
        assert trainer.network.rounds == 5  # warm-up rounds did happen
        snapshot = registry.snapshot()
        assert snapshot["train.rounds"] == 3
        assert snapshot["train.loss"] == report.losses[-1]

    def test_lr_schedule_applied(self, make_trainer):
        trainer = make_trainer()
        asked, used = [], []
        trainer.run(
            rounds=3,
            lr_schedule=lambda i: asked.append(i) or 0.01 * (i + 1),
            callback=lambda i, loss: used.append(
                trainer.network.optimizer.learning_rate))
        assert asked == [0, 1, 2]
        assert used == pytest.approx([0.01, 0.02, 0.03])

    def test_validations_recorded(self, make_trainer):
        trainer = make_trainer()
        report = trainer.run(
            rounds=6, val_provider=RandomProvider(INPUT, OUT, False, 2),
            validate_every=2, val_samples=1)
        assert [r for r, _ in report.validations] == [1, 3, 5]
        assert all(v > 0 for _, v in report.validations)
        assert trainer.network.rounds == 6  # validation trains nothing

    def test_second_run_continues_the_round_counter(self, make_trainer,
                                                    tmp_path):
        straight = make_trainer()
        straight.run(4)

        trainer = make_trainer()
        trainer.run(2)
        report = trainer.run(2, checkpoint_every=2,
                             checkpoint_dir=tmp_path)
        assert trainer.network.rounds == 4
        assert names(report.checkpoints) == ["ckpt-00000002.npz",
                                             "ckpt-00000004.npz"]
        # 2 + 2 == 4, bitwise: the second run() continues the sample
        # stream where the first one stopped.
        assert (state_digest(trainer.network)
                == state_digest(straight.network))


class TestNonFiniteLoss:
    def test_without_checkpoints_raises_diverged(self, make_trainer):
        install_plan(FaultPlan.from_string("corrupt:loss:1"))
        with pytest.raises(TrainingDiverged, match="no.*checkpoint"):
            make_trainer().run(rounds=2)

    def test_with_checkpoints_rolls_back_once_and_completes(
            self, make_trainer, tmp_path, registry):
        clean = make_trainer().run(rounds=5, checkpoint_every=2,
                                   checkpoint_dir=tmp_path / "clean")

        install_plan(FaultPlan.from_string("corrupt:loss:4"))
        trainer = make_trainer()
        seen = []
        report = trainer.run(rounds=5, checkpoint_every=2,
                             checkpoint_dir=tmp_path / "chaos",
                             callback=lambda i, loss: seen.append(i))
        assert report.rollbacks == 1
        assert registry.snapshot()["train.rollbacks"] == 1
        # The NaN at round index 3 rolled back to the round-2 checkpoint
        # (recorded rounds truncated to 2), so indexes 2 and 3 re-ran;
        # the corrupted attempt itself never reached the callback.
        assert seen == [0, 1, 2, 2, 3, 4]
        assert report.rounds == clean.rounds == 5
        assert len(report.round_seconds) == 5
        assert all(np.isfinite(report.losses))
        assert trainer.network.rounds == 5
        assert names(report.checkpoints)[-1] == names(clean.checkpoints)[-1]
        assert trainer.network.optimizer.learning_rate == pytest.approx(
            CFG.learning_rate * 0.5)

    def test_rollback_budget_exhaustion_raises(self, make_trainer,
                                               tmp_path):
        install_plan(FaultPlan.from_string("corrupt:loss:1x50"))
        with pytest.raises(TrainingDiverged, match="after 2 rollbacks"):
            make_trainer().run(rounds=3, checkpoint_every=1,
                               checkpoint_dir=tmp_path, max_rollbacks=2)


def test_both_trainers_share_one_run():
    """The contract holds by construction: there is one loop."""
    assert ParallelTrainer.run is Trainer.run
