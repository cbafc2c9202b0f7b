"""Trainer / TrainingReport tests (Section VIII measurement protocol)."""

import numpy as np
import pytest

from repro.core import Network, SGD, Trainer, measure_seconds_per_update
from repro.data import FixedProvider, RandomProvider
from repro.graph import build_layered_network


def make_net():
    graph = build_layered_network("CTC", width=[2, 1], kernel=2,
                                  transfer="tanh")
    return Network(graph, input_shape=(8, 8, 8), seed=0,
                   optimizer=SGD(learning_rate=0.01))


class TestTrainer:
    def test_records_losses_and_times(self):
        net = make_net()
        provider = RandomProvider((8, 8, 8), net.output_nodes[0].shape,
                                  seed=1)
        report = Trainer(net, provider).run(rounds=5)
        assert report.rounds == 5
        assert len(report.round_seconds) == 5
        assert all(t > 0 for t in report.round_seconds)

    def test_negative_rounds_rejected(self):
        net = make_net()
        provider = RandomProvider((8, 8, 8), net.output_nodes[0].shape)
        with pytest.raises(ValueError):
            Trainer(net, provider).run(rounds=-1)

    def test_fixed_provider_deterministic_losses(self, rng):
        x = rng.standard_normal((8, 8, 8))

        def run():
            net = make_net()
            t = np.zeros(net.output_nodes[0].shape)
            provider = FixedProvider([(x, t)])
            return Trainer(net, provider).run(rounds=4).losses

        np.testing.assert_allclose(run(), run(), atol=1e-12)


class TestReport:
    def test_smoothed_losses_window(self):
        from repro.core import TrainingReport
        report = TrainingReport(losses=[4.0, 2.0, 0.0],
                                round_seconds=[0.1] * 3)
        assert report.smoothed_losses(window=2) == [4.0, 3.0, 1.0]

    def test_smoothed_invalid_window(self):
        from repro.core import TrainingReport
        with pytest.raises(ValueError):
            TrainingReport().smoothed_losses(window=0)

    def test_mean_seconds_empty(self):
        from repro.core import TrainingReport
        assert TrainingReport().mean_seconds_per_update == 0.0


class TestMeasurementProtocol:
    def test_measure_seconds_per_update(self):
        """5 warm-up rounds then averaged timing — the paper's method,
        here with tiny counts."""
        net = make_net()
        provider = RandomProvider((8, 8, 8), net.output_nodes[0].shape,
                                  seed=2)
        seconds = measure_seconds_per_update(net, provider, warmup=1,
                                             rounds=3)
        assert seconds > 0


class TestValidation:
    def test_validate_forward_only(self, rng):
        net = make_net()
        provider = RandomProvider((8, 8, 8), net.output_nodes[0].shape,
                                  seed=5)
        before = net.kernels()
        from repro.core import Trainer
        value = Trainer(net, provider).validate(provider, samples=2)
        assert value > 0
        after = net.kernels()
        for k in before:
            np.testing.assert_array_equal(before[k], after[k])

    def test_validate_every_without_provider_rejected(self):
        net = make_net()
        provider = RandomProvider((8, 8, 8), net.output_nodes[0].shape)
        from repro.core import Trainer
        with pytest.raises(ValueError):
            Trainer(net, provider).run(rounds=2, validate_every=1)
