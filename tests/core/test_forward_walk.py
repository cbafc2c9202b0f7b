"""The one-worker forward walk.

A one-worker ``Network.forward`` runs its edges' forward passes on the
calling thread in a static order instead of queueing one task per edge.
These tests hold that it computes the cascade's bits, that it queues
nothing, still FORCEs pending updates and still counts ``fwd`` faults,
and that a walk that raises leaves the network able to run again.
"""

import numpy as np
import pytest

from repro.core import Network
from repro.graph import build_layered_network
from repro.graph.builders import dense_twin
from repro.observability.tracing import Tracer, set_tracer
from repro.resilience import FaultPlan, InjectedFault, clear_plan, \
    install_plan

from test_pass_spans import HoldUpdates, every_kind_graph, passes, \
    square, train_once  # noqa: F401  (square is a fixture)


def assert_same_bits(a, b):
    assert a.keys() == b.keys()
    for name in a:
        assert a[name].tobytes() == b[name].tobytes(), name


def twin_graph():
    return dense_twin("CTPCTPCT", width=[4, 4, 1], kernel=3, window=2,
                      transfer="tanh").build_graph()


class TestSameBitsAsTheCascade:
    def test_every_edge_kind(self, square):
        x = np.random.default_rng(0).standard_normal((12, 12, 12))
        out = {}
        for workers in (1, 2):
            with Network(every_kind_graph(), input_shape=(12, 12, 12),
                         seed=1, num_workers=workers) as net:
                out[workers] = net.forward(x)
        assert_same_bits(out[1], out[2])

    @pytest.mark.parametrize("mode", ["direct", "fft"])
    def test_dense_twin(self, mode):
        x = np.random.default_rng(1).standard_normal((24, 24, 24))
        out = {}
        for workers in (1, 2):
            with Network(twin_graph(), input_shape=(24, 24, 24),
                         conv_mode=mode, seed=0,
                         num_workers=workers) as net:
                out[workers] = net.forward(x)
        assert_same_bits(out[1], out[2])

    @pytest.mark.parametrize("mode", ["direct", "fft"])
    def test_arrival_order_sums_associate_as_in_the_cascade(self, mode):
        """In-degree 12: the cascade's tasks arrive at a node in an order
        (``L1_10`` before ``L1_2``) that is not edge order, the walk's;
        every node sums in edge order, so the walk still gives the
        cascade's bits.  A one-worker ``train_step`` still runs its
        forward half as the cascade."""
        x = np.random.default_rng(2).standard_normal((8, 8, 8))

        def net():
            return Network(build_layered_network("CTCT", width=12,
                                                 kernel=2, transfer="tanh"),
                           input_shape=(8, 8, 8), conv_mode=mode, seed=3)

        walked = net().forward(x)
        cascade = net()
        cascade.train_step(x, {n.name: np.zeros(n.shape)
                               for n in cascade.output_nodes})
        assert_same_bits(walked, cascade.outputs())


class TestNoTasks:
    def test_forward_queues_and_executes_nothing(self):
        net = Network(twin_graph(), input_shape=(24, 24, 24), seed=0)
        executed = net.engine.executed
        net.forward(np.zeros((24, 24, 24)))
        assert net.engine.executed == executed
        assert len(net.engine.queue) == 0

    def test_pending_updates_are_forced_before_their_forward(self):
        tracer = Tracer(enabled=True, process="test")
        previous = set_tracer(tracer)
        try:
            graph = build_layered_network("CTC", width=2, kernel=3,
                                          transfer="tanh")
            net = Network(graph, input_shape=(8, 8, 8), seed=1)
            net.engine = HoldUpdates()
            train_once(net, 8)
            tracer.clear()
            net.forward(np.zeros((8, 8, 8)))
            spans = tracer.spans()
        finally:
            set_tracer(previous)
        updates = passes(spans, op="upd")
        assert {s.attrs["edge"] for s in updates} == {
            name for name, e in net.edges.items() if e.is_trainable}
        for upd in updates:
            fwd, = passes(spans, op="fwd", edge=upd.attrs["edge"])
            assert upd.end <= fwd.start
        assert all(e.update_task is None or e.update_task.state.value
                   == "completed" for e in net.edges.values())


class TestFaults:
    @pytest.fixture(autouse=True)
    def clean_faults(self):
        clear_plan()
        yield
        clear_plan()

    def test_fail_fwd_still_counts_walk_passes(self):
        net = Network(build_layered_network("CTC", width=2, kernel=2),
                      input_shape=(8, 8, 8), seed=0)
        install_plan(FaultPlan.from_string("fail:fwd:3"))
        with pytest.raises(InjectedFault, match="fwd occurrence 3"):
            net.forward(np.zeros((8, 8, 8)))
