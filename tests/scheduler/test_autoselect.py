"""Automatic scheduling-strategy selection tests (Section X future
work)."""

import pytest

from repro.graph import build_layered_network
from repro.scheduler import StrategyChoice, select_strategy
from repro.simulate import MachineSpec


def layered(width=4, spec="CTMCT"):
    g = build_layered_network(spec, width=width, kernel=3, window=2)
    g.propagate_shapes(16)
    return g


class TestSelection:
    def test_returns_valid_scheduler(self):
        choice = select_strategy(layered(), num_workers=4)
        assert choice.scheduler in ("priority", "fifo", "lifo",
                                    "work-stealing")

    def test_all_policies_evaluated(self):
        choice = select_strategy(layered(), num_workers=4)
        assert set(choice.policy_makespans) == {"priority", "fifo",
                                                "lifo", "random"}
        assert all(m > 0 for m in choice.policy_makespans.values())

    def test_prefers_priority_on_ties(self):
        """The paper's scheduler wins whenever it is within tolerance —
        wide layered nets leave little between policies, so priority
        must be chosen."""
        choice = select_strategy(layered(width=8), num_workers=4,
                                 tolerance=0.05)
        assert choice.scheduler == "priority"

    def test_custom_policy_subset(self):
        choice = select_strategy(layered(), num_workers=2,
                                 policies=("fifo", "lifo"))
        assert choice.scheduler in ("fifo", "lifo")

    def test_single_worker_any_policy_same_makespan(self):
        choice = select_strategy(layered(), num_workers=1)
        values = list(choice.policy_makespans.values())
        # one worker: total work dominates; policies within 1 %
        assert max(values) / min(values) < 1.01

    def test_custom_machine(self):
        machine = MachineSpec(name="m", cores=2, threads=4, ghz=1.0)
        choice = select_strategy(layered(), num_workers=4, machine=machine)
        assert choice.best_makespan > 0

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            select_strategy(layered(), num_workers=0)

    def test_requires_propagated_shapes(self):
        g = build_layered_network("CT", width=1, kernel=2)
        with pytest.raises(ValueError):
            select_strategy(g, num_workers=2)


class TestChoiceObject:
    def test_speedup_over(self):
        choice = StrategyChoice(
            scheduler="priority",
            policy_makespans={"priority": 10.0, "fifo": 15.0,
                              "lifo": 12.0, "random": 20.0})
        assert choice.speedup_over("fifo") == pytest.approx(1.5)
        assert choice.best_makespan == 10.0

    def test_selected_strategy_runs_in_live_engine(self, rng):
        """The recommendation plugs straight into Network."""
        import numpy as np

        from repro.core import Network, SGD

        g = layered(width=2)
        choice = select_strategy(g, num_workers=2)
        net = Network(g, input_shape=(16, 16, 16), num_workers=2,
                      scheduler=choice.scheduler, seed=0,
                      optimizer=SGD(learning_rate=0.01))
        x = rng.standard_normal((16, 16, 16))
        targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
        loss = net.train_step(x, targets)
        net.close()
        assert np.isfinite(loss)
