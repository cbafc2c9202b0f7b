"""ParallelTrainer: determinism contract, degradation, lifecycle.

What it shares with the in-process ``Trainer`` — the round loop — is
covered for both by ``tests/core/test_trainer_contract.py``.

Multi-process cases (anything with ``workers >= 2`` actually spawns
children) are marked ``slow`` so the tier-1 run stays fast; the CI slow
lane runs them.
"""

import multiprocessing

import numpy as np
import pytest

from repro.core import Trainer, load_latest_checkpoint, state_digest
from repro.data.provider import RandomProvider, ShardedSampler
from repro.parallel import ModelConfig, ParallelTrainer, WorkerPoolBroken
from repro.parallel.trainer import _Child
from repro.resilience import RetryPolicy
from repro.resilience.faults import FaultPlan, clear_plan, install_plan
from repro.sync import reduce_in_order

INPUT = (10, 10, 10)
OUT = (8, 8, 8)
CFG = ModelConfig(
    input_shape=INPUT,
    spec="CT",
    layered_kwargs={"width": 2, "kernel": 3, "transfer": "tanh",
                    "final_transfer": "tanh", "output_nodes": 1},
    loss="euclidean",
    seed=13,
    learning_rate=0.005,
    momentum=0.9)
PROVIDER_ARGS = (INPUT, OUT, False, None)
ROUNDS = 3


def run_parallel(workers, batch, **kwargs):
    trainer = ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS,
                              workers=workers, batch=batch,
                              worker_timeout=120.0, **kwargs)
    try:
        report = trainer.run(ROUNDS)
        digest = state_digest(trainer.network)
    finally:
        trainer.close()
    return report, digest


class _Replay:
    def __init__(self, samples):
        self.samples = list(samples)

    def sample(self):
        return self.samples.pop(0)


class TestDeterminism:
    def test_w1_b1_bitwise_equals_sequential_trainer(self):
        report, digest = run_parallel(1, 1)
        # Replay the exact same sample stream through the plain
        # single-process Trainer.
        sampler = ShardedSampler(RandomProvider(*PROVIDER_ARGS),
                                 CFG.seed, 1)
        samples = [sampler.sample_at(r, 0) for r in range(ROUNDS)]
        net = CFG.build_network()
        try:
            seq_report = Trainer(net, _Replay(samples)).run(ROUNDS)
            seq_digest = state_digest(net)
        finally:
            net.close()
        assert report.losses == seq_report.losses
        assert digest == seq_digest

    def test_batch_size_changes_results(self):
        # Sanity check that the contract is on (workers), not vacuous:
        # different global batches must give different trajectories.
        _, d1 = run_parallel(1, 1)
        _, d2 = run_parallel(1, 2)
        assert d1 != d2

    @pytest.mark.slow
    def test_worker_count_invariance(self):
        r1, d1 = run_parallel(1, 2)
        r2, d2 = run_parallel(2, 2)
        assert r1.losses == r2.losses
        assert d1 == d2

    def test_repeat_runs_are_bitwise_identical(self):
        r_a, d_a = run_parallel(1, 2)
        r_b, d_b = run_parallel(1, 2)
        assert r_a.losses == r_b.losses
        assert d_a == d_b


class TestResume:
    def test_checkpoint_restored_run_equals_uninterrupted(self, tmp_path):
        """2 rounds, a fresh trainer restored from the checkpoint, 2
        more == 4 straight rounds, bitwise: samples are keyed on the
        restored global update count, not on the position in run()."""
        def make():
            return ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS,
                                   workers=1, batch=2)

        with make() as straight:
            straight.run(4)
            expected = state_digest(straight.network)
        with make() as first:
            first.run(2, checkpoint_every=2, checkpoint_dir=tmp_path)
        with make() as resumed:
            assert load_latest_checkpoint(resumed.network, tmp_path)
            resumed.run(2)
            assert resumed.network.rounds == 4
            assert state_digest(resumed.network) == expected

    @pytest.mark.slow
    def test_rollback_is_worker_count_invariant(self, tmp_path):
        """A rolled-back run replays the same (round, index) samples,
        so it too ends on the same bits for W in {1, 2}."""
        digests = []
        try:
            for workers in (1, 2):
                install_plan(FaultPlan.from_string("corrupt:loss:2"))
                with ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS,
                                     workers=workers, batch=2,
                                     worker_timeout=120.0) as trainer:
                    report = trainer.run(
                        ROUNDS, checkpoint_every=1,
                        checkpoint_dir=tmp_path / str(workers))
                    digests.append(state_digest(trainer.network))
                assert report.rollbacks == 1
                assert report.rounds == ROUNDS
        finally:
            clear_plan()
        assert digests[0] == digests[1]


class TestDegradation:
    @pytest.mark.slow
    def test_dead_worker_does_not_change_the_checkpoint(self, monkeypatch):
        _, clean_digest = run_parallel(1, 2)
        # The spawned child resolves REPRO_FAULTS on first use and
        # kills itself (os._exit) at its first "worker" check; the
        # coordinator recomputes the orphaned slot.
        monkeypatch.setenv("REPRO_FAULTS", "fail:worker:1")
        try:
            report, digest = run_parallel(2, 2)
        finally:
            clear_plan()  # drop any plan the parent resolved
        assert report.worker_deaths == 1
        assert digest == clean_digest

    @pytest.mark.slow
    def test_death_budget_exhaustion_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "fail:worker:1")
        trainer = ParallelTrainer(
            CFG, RandomProvider, PROVIDER_ARGS, workers=2, batch=2,
            worker_timeout=120.0,
            retry_policy=RetryPolicy(max_retries=0))
        try:
            with pytest.raises(WorkerPoolBroken, match="retry budget"):
                trainer.run(ROUNDS)
        finally:
            trainer.close()
            clear_plan()


class TestLifecycle:
    def test_validation(self, tmp_path):
        with pytest.raises(ValueError, match="workers"):
            ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS, workers=0)
        with pytest.raises(ValueError, match="batch"):
            ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS, batch=0)
        trainer = ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS)
        try:
            with pytest.raises(ValueError, match="rounds"):
                trainer.run(-1)
            with pytest.raises(ValueError, match="checkpoint_dir"):
                trainer.run(1, checkpoint_every=1)
        finally:
            trainer.close()
        trainer.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            trainer.run(1)

    def test_shipped_config_has_resolved_conv_modes(self):
        trainer = ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS)
        try:
            assert isinstance(trainer.config.conv_mode, dict)
        finally:
            trainer.close()


def test_shard_assignments_cover_batch_exactly():
    trainer = ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS,
                              workers=1, batch=5)
    try:
        assignments = trainer._assignments()
        assert sorted(i for s in assignments.values() for i in s) \
            == list(range(5))
    finally:
        trainer.close()


def test_w1b1_matches_digest_of_numpy_reduce():
    # reduce()/batch of a single slot is a bitwise no-op: x/1.0 == x.
    x = np.random.default_rng(0).standard_normal(16)
    assert np.array_equal(x / 1.0, x)


class _Held:
    """A child process that is alive until the trainer joins it."""

    alive = True

    def is_alive(self):
        return self.alive

    def join(self, timeout=None):
        self.alive = False


def test_grad_replies_reduce_in_index_order(monkeypatch):
    """A worker's ``grad`` replies are filed by global index whatever
    order they arrive in, replies to an earlier round are ignored, and
    the update is ``reduce_in_order`` of the index-ordered list."""
    trainer = ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS,
                              workers=1, batch=4)
    ours, theirs = multiprocessing.Pipe()
    try:
        trainer._children.append(_Child(1, _Held(), ours))
        assert trainer._assignments()[1] == [1, 3]
        grads, losses = [], []
        for i in range(4):
            grad = np.empty(trainer.replica.num_values)
            losses.append(trainer.replica.sample_gradient(
                trainer._sampler, 1, i, grad))
            grads.append(grad)
        junk = np.full_like(grads[1], 7.0)
        theirs.send(("done", 0, 1))  # stale: round 0's barrier reply
        theirs.send(("grad", 1, 3, losses[3], grads[3]))
        theirs.send(("grad", 1, 1, losses[1], grads[1]))
        theirs.send(("grad", 0, 1, 99.0, junk))  # stale
        theirs.send(("done", 1, 1))
        computed, applied = [], []
        compute = trainer._compute

        def noting_compute(round_index, indices):
            computed.extend(indices)
            compute(round_index, indices)

        monkeypatch.setattr(trainer, "_compute", noting_compute)
        monkeypatch.setattr(trainer.replica, "apply_update",
                            lambda grad, optimizer: applied.append(grad))
        mean_loss = trainer._run_round(1)
    finally:
        trainer.close()
        theirs.close()
    assert computed == [0, 2]
    assert np.array_equal(applied[0], reduce_in_order(grads) / 4)
    loss_total = 0.0
    for loss in losses:
        loss_total += loss
    assert mean_loss == loss_total / 4


def test_replies_are_taken_while_the_coordinator_computes(monkeypatch):
    """A worker's replies are read between the coordinator's own
    samples, so a worker never stalls on a full pipe: by the barrier,
    its gradient is filed and its "done" seen."""
    trainer = ParallelTrainer(CFG, RandomProvider, PROVIDER_ARGS,
                              workers=1, batch=2)
    ours, theirs = multiprocessing.Pipe()
    try:
        child = _Child(1, _Held(), ours)
        trainer._children.append(child)
        grad = np.empty(trainer.replica.num_values)
        loss = trainer.replica.sample_gradient(trainer._sampler, 0, 1, grad)
        theirs.send(("grad", 0, 1, loss, grad))
        theirs.send(("done", 0, 1))
        at_barrier = []
        receive = trainer._receive

        def noting_receive(child, timeout):
            at_barrier.append((child.answered,
                               trainer._grads[1] is not None))
            return receive(child, timeout)

        monkeypatch.setattr(trainer, "_receive", noting_receive)
        trainer._run_round(0)
    finally:
        trainer.close()
        theirs.close()
    assert at_barrier == [(0, True)]
