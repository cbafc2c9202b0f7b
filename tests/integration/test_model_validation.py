"""Model validation: the discrete-event simulator against the live
engine.

The DES substitutes for the paper's physical machines (DESIGN.md), so
its *relative* predictions should be consistent with what the real
threaded engine does on this host where comparable: task counts, the
work split between task families, and the qualitative effect of more
parallel slack.
"""

import numpy as np

from repro.core import Network, SGD
from repro.graph import build_layered_network, build_task_graph
from repro.observability.tracing import (
    Tracer,
    set_tracer,
    summarize_task_spans,
)
from repro.simulate import MachineSpec, simulate_schedule


def traced_round(width=3, conv_mode="direct", rounds=1):
    """*rounds* training rounds of one net under a fresh tracer;
    returns the graph and the rounds' task spans."""
    tracer = Tracer(enabled=True)
    previous = set_tracer(tracer)
    try:
        graph = build_layered_network("CTMCT", width=width, kernel=3,
                                      window=2, transfer="tanh")
        net = Network(graph, input_shape=(16, 16, 16), conv_mode=conv_mode,
                      seed=0, optimizer=SGD(learning_rate=1e-4))
        rng = np.random.default_rng(0)
        x = rng.standard_normal((16, 16, 16))
        targets = {n.name: np.zeros(n.shape) for n in net.output_nodes}
        for _ in range(rounds):  # updates drained, not FORCEd into fwd
            net.train_step(x, targets)
            net.synchronize()
        net.close()
    finally:
        set_tracer(previous)
    return graph, tracer.spans()


class TestTaskAccounting:
    def test_live_engine_runs_what_the_model_predicts(self):
        """Task counts: the live engine executes (at least) the
        forward/backward/lossgrad/provider tasks the task-graph model
        enumerates — updates may be folded into FORCEd forward tasks,
        and FFT-mode node transforms happen inside edge tasks."""
        graph, spans = traced_round()
        tg = build_task_graph(graph, conv_mode="direct")
        kinds = tg.count_kinds()
        families = {}
        for s in spans:
            families[s.category] = families.get(s.category, 0) + 1
        assert families["fwd"] == kinds["forward"]
        assert families["bwd"] == kinds["backward"]
        assert families["lossgrad"] == kinds["lossgrad"]
        assert families["provider"] == kinds["provider"]

    def test_work_split_correlates_with_flop_model(self):
        """The measured fwd:bwd wall-time ratio should be within a
        small factor of the FLOP model's prediction (both passes do
        the same direct convolutions here).  Task time is summed over
        five rounds: one descheduled task of a single few-ms round can
        move that round's ratio out of the band on its own."""
        graph, spans = traced_round(rounds=5)
        summary = summarize_task_spans(spans)
        measured = (summary.time_per_family["fwd"]
                    / summary.time_per_family["bwd"])
        tg = build_task_graph(graph, conv_mode="direct")
        fwd = sum(c for c, k in zip(tg.costs, tg.kinds) if k == "forward")
        bwd = sum(c for c, k in zip(tg.costs, tg.kinds) if k == "backward")
        modelled = fwd / bwd
        assert 0.3 < measured / modelled < 3.0


class TestRelativePredictions:
    def test_wider_network_more_simulated_parallelism_and_more_live_tasks(self):
        """Both the model and reality agree that wider networks expose
        more parallel work."""
        host = MachineSpec(name="h", cores=4, threads=4, ghz=1.0,
                           yield_tier1=0.0, sync_overhead=0.0)
        speedups = {}
        live_tasks = {}
        for width in (2, 6):
            graph, spans = traced_round(width=width)
            tg = build_task_graph(graph, conv_mode="direct")
            speedups[width] = simulate_schedule(tg, host, 4).speedup
            live_tasks[width] = summarize_task_spans(spans).tasks
        assert speedups[6] >= speedups[2]
        assert live_tasks[6] > live_tasks[2]

    def test_simulated_speedup_bounded_by_brent(self):
        """DES makespan can never beat max(T1/P, Tinf) — the Brent /
        critical-path lower bound."""
        graph, _ = traced_round(width=4)
        tg = build_task_graph(graph, conv_mode="direct")
        host = MachineSpec(name="h", cores=8, threads=8, ghz=1.0,
                           yield_tier1=0.0, sync_overhead=0.0)
        result = simulate_schedule(tg, host, 8)
        lower = max(tg.total_cost / 8, tg.critical_path_cost())
        assert result.makespan >= lower * 0.999
