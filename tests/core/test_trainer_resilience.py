"""Trainer hardening: argument validation and resume from a checkpoint
directory.  Checkpoint cadence, the NaN/Inf guard and rollback live in
``test_trainer_contract.py``, which runs them over both trainers."""

import numpy as np
import pytest

from repro.core import Network, SGD, Trainer, load_latest_checkpoint
from repro.graph import build_layered_network


class ConstProvider:
    """Deterministic provider: the same sample every round."""

    def __init__(self, net, seed=0):
        rng = np.random.default_rng(seed)
        shape = net.input_nodes[0].shape
        self.x = rng.standard_normal(shape)
        self.t = {n.name: rng.standard_normal(n.shape)
                  for n in net.output_nodes}

    def sample(self):
        return self.x, self.t


def make_net(seed=0, lr=0.05, momentum=0.9):
    graph = build_layered_network("CTC", width=2, kernel=2,
                                  transfer="tanh")
    return Network(graph, input_shape=(8, 8, 8), seed=seed,
                   optimizer=SGD(learning_rate=lr, momentum=momentum))


def test_run_argument_validation(tmp_path):
    net = make_net()
    with pytest.raises(ValueError):
        Trainer(net, ConstProvider(net)).run(rounds=1,
                                             checkpoint_every=2)
    with pytest.raises(ValueError):
        Trainer(net, ConstProvider(net)).run(
            rounds=1, checkpoint_every=1, checkpoint_dir=tmp_path,
            rollback_lr_decay=0.0)


class TestResume:
    def test_resume_continues_from_latest_checkpoint(self, tmp_path):
        net = make_net(seed=1)
        provider = ConstProvider(net)
        Trainer(net, provider).run(rounds=4, checkpoint_every=2,
                                   checkpoint_dir=tmp_path)
        assert net.rounds == 4

        fresh = make_net(seed=99)  # different init — the load overwrites
        path = load_latest_checkpoint(fresh, tmp_path)
        assert path is not None and fresh.rounds == 4
        for name in net.edges:
            if hasattr(net.edges[name], "kernel"):
                np.testing.assert_array_equal(
                    net.edges[name].kernel.array,
                    fresh.edges[name].kernel.array)
        # Continue the run: 2 more recorded rounds on the restored net.
        report = Trainer(fresh, ConstProvider(fresh)).run(
            rounds=2, checkpoint_every=2, checkpoint_dir=tmp_path)
        assert fresh.rounds == 6
        assert report.checkpoints[-1].endswith("ckpt-00000006.npz")
