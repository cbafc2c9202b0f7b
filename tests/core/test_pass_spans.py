"""Pass spans: the one timing record of what an edge or node did.

``Network._pass`` is the only bracket; with tracing on every forward /
backward transform, update and node accumulation is a child span of the
task that ran it (of the caller's span, in a one-worker forward walk).  These tests hold that for every edge kind, for a
FORCEd update, for the conv annotations, and for the accounting the
conv-only clock could never pass: the spans of one forward add up to
its wall-clock.
"""

import time

import numpy as np
import pytest

from repro.analysis import runtime
from repro.core import CustomOp, Network, register_custom_op, \
    unregister_custom_op
from repro.graph import ComputationGraph, build_layered_network
from repro.graph.builders import dense_twin
from repro.observability.tracing import Tracer, set_tracer
from repro.resilience import FaultPlan, clear_plan, install_plan
from repro.scheduler import SerialEngine


@pytest.fixture
def tracer():
    fresh = Tracer(enabled=True, process="test")
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


@pytest.fixture
def square():
    register_custom_op(CustomOp(
        name="square", forward=lambda x, state: x * x,
        backward=lambda g, x, y, state: 2.0 * x * g), replace=True)
    yield
    unregister_custom_op("square")


def every_kind_graph():
    """conv -> transfer -> pool -> filter -> dropout -> custom."""
    g = ComputationGraph()
    for name in ("in", "a", "b", "c", "d", "e", "out"):
        g.add_node(name)
    g.add_edge("conv", "in", "a", "conv", kernel=3)
    g.add_edge("xfer", "a", "b", "transfer", transfer="tanh")
    g.add_edge("pool", "b", "c", "pool", window=2)
    g.add_edge("filt", "c", "d", "filter", window=2)
    g.add_edge("drop", "d", "e", "dropout", rate=0.5)
    g.add_edge("cust", "e", "out", "custom", op="square")
    return g


def train_once(net, size, rounds=1):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((size,) * 3)
    targets = {n.name: rng.standard_normal(n.shape)
               for n in net.output_nodes}
    for _ in range(rounds):
        net.train_step(x, targets)


def passes(spans, **attrs):
    return [s for s in spans if s.category == "pass"
            and all(s.attrs.get(k) == v for k, v in attrs.items())]


class TestEveryTaskHasItsPass:
    def test_each_edge_kind_gets_fwd_bwd_and_upd_children(self, tracer,
                                                          square):
        net = Network(every_kind_graph(), input_shape=(12, 12, 12), seed=1)
        try:
            train_once(net, 12)
        finally:
            net.close()
        spans = tracer.spans()
        tasks = [s for s in spans if "worker" in s.attrs
                 and s.category in ("fwd", "bwd", "upd")]
        # 6 edges forward and backward, the 2 trainable ones updated.
        assert len(tasks) == 6 + 6 + 2
        kinds = {"conv": "direct", "xfer": "transfer", "pool": "pool",
                 "filt": "filter", "drop": "dropout", "cust": "custom"}
        for task in tasks:
            op, _, edge = task.name.partition(":")
            child, = [s for s in passes(spans, op=op, edge=edge)
                      if s.parent_id == task.span_id]
            assert child.attrs["backend"] == kinds[edge]
            assert task.start <= child.start <= child.end <= task.end
        # A pass span is not a task: the task summary must not count it.
        assert not any("worker" in s.attrs for s in passes(spans))

    def test_node_sums_are_pass_spans_too(self, tracer):
        graph = build_layered_network("CT", width=2, kernel=3,
                                      transfer="tanh")
        net = Network(graph, input_shape=(8, 8, 8), seed=1)
        try:
            net.forward(np.zeros((8, 8, 8)))
        finally:
            net.close()
        sums = passes(tracer.spans(), op="sum")
        # One per contribution: every edge deposits into its node.
        assert len(sums) == len(net.edges)
        assert {s.attrs["edge"] for s in sums} == {
            n.name for n in net.nodes.values() if n.in_edges}
        assert {s.attrs["backend"] for s in sums} == {"sum"}


class HoldUpdates(SerialEngine):
    """A serial engine that queues update tasks without ever popping
    them, so only the next round's FORCE can run them."""

    def submit(self, task):
        if task.name.startswith("upd:"):
            task.mark_queued()
            return task
        return super().submit(task)


class TestForcedUpdate:
    def test_stolen_update_is_a_pass_inside_the_forward_task(self, tracer):
        graph = build_layered_network("CT", width=1, kernel=3,
                                      transfer="tanh")
        net = Network(graph, input_shape=(8, 8, 8), seed=1)
        net.engine = HoldUpdates()
        train_once(net, 8)
        assert not passes(tracer.spans(), op="upd")  # all still pending
        tracer.clear()
        train_once(net, 8)
        spans = tracer.spans()
        by_id = {s.span_id: s for s in spans}
        updates = passes(spans, op="upd")
        assert {s.attrs["edge"] for s in updates} == set(net.edges)
        for upd in updates:
            task = by_id[upd.parent_id]
            assert task.name == f"fwd:{upd.attrs['edge']}"
            assert "worker" in task.attrs
            fwd = passes(spans, op="fwd", edge=upd.attrs["edge"])[0]
            # The update ran first, then the forward it was FORCEd for.
            assert task.start <= upd.end <= fwd.start <= task.end
        assert not [s for s in spans if s.category == "upd"]


class TestConvAnnotations:
    @pytest.fixture(autouse=True)
    def clean_faults(self):
        clear_plan()
        yield
        clear_plan()

    @pytest.mark.parametrize("mode", ["direct", "fft"])
    def test_flops_and_bytes_are_the_backends_pass_cost(self, tracer, mode):
        graph = build_layered_network("CTC", width=2, kernel=3,
                                      transfer="tanh",
                                      skip_kernels=True)
        net = Network(graph, input_shape=(10, 10, 10), seed=1,
                      conv_mode=mode)
        try:
            train_once(net, 10)
        finally:
            net.close()
        conv = [s for s in passes(tracer.spans())
                if s.attrs["op"] != "sum" and "flops" in s.attrs]
        edges = {name: e for name, e in net.edges.items()
                 if hasattr(e, "kernel")}
        assert len(conv) == 3 * len(edges)
        for span in conv:
            edge = edges[span.attrs["edge"]]
            cost = edge.backend.build(edge.src.shape, edge.spec.kernel,
                                      edge.spec.sparsity).pass_cost()
            assert span.attrs["backend"] == mode
            assert span.attrs["flops"] == cost["flops"]
            assert span.attrs["bytes"] == cost["bytes"]
            assert tuple(span.attrs["image_shape"]) == edge.src.shape
            assert tuple(span.attrs["kernel_shape"]) == edge.spec.kernel

    def test_degraded_fft_edge_reports_direct(self, tracer):
        graph = build_layered_network("CTC", width=2, kernel=2,
                                      transfer="tanh")
        net = Network(graph, input_shape=(8, 8, 8), seed=5,
                      conv_mode="fft")
        install_plan(FaultPlan.from_string("fail:fft:1"))
        try:
            with pytest.warns(RuntimeWarning, match="falling back"):
                net.forward(np.random.default_rng(0).standard_normal(
                    (8, 8, 8)))
        finally:
            net.close()
        degraded = [name for name, e in net.edges.items()
                    if getattr(e, "mode", None) == "fft" and not e.fft_ok]
        assert len(degraded) == 1
        edge = net.edges[degraded[0]]
        span, = passes(tracer.spans(), op="fwd", edge=degraded[0])
        direct = edge.pass_attrs
        assert span.attrs["backend"] == "direct"
        assert span.attrs["flops"] == direct["flops"]
        others = [s for s in passes(tracer.spans(), op="fwd")
                  if "flops" in s.attrs and s.attrs["edge"] != degraded[0]]
        assert others and {s.attrs["backend"] for s in others} == {"fft"}


@pytest.fixture
def plain_locks(monkeypatch):
    """Locks built from here on are plain even under REPRO_CHECK=1: the
    accounting is a property of the shipped configuration, and a
    CheckedLock's stack capture on every acquire lands outside every
    pass span (coverage ~0.6 there)."""
    monkeypatch.setattr(runtime, "_state", None)


class TestAccounting:
    def test_forward_passes_add_up_to_the_wall_clock(self, plain_locks,
                                                      tracer):
        """The ``fwd`` + ``sum`` pass spans of one forward of the
        CTPCTPCT width-4 dense twin at a 36^3 tile cover 0.7-1.05x of
        its wall-clock on the one-worker walk (the conv-only entries of
        the deleted profiler covered about half: CHANGES.md)."""
        twin = dense_twin("CTPCTPCT", width=4, kernel=3, window=2,
                          transfer="tanh")
        net = Network(twin.build_graph(), input_shape=(36, 36, 36),
                      conv_mode="fft", seed=0)
        volume = np.random.default_rng(1).standard_normal((36, 36, 36))
        try:
            for _ in range(2):
                net.forward(volume)  # warm numpy, FFT plans, the tracer
            best = 0.0
            for _ in range(5):
                tracer.clear()
                t0 = time.perf_counter()
                net.forward(volume)
                wall = time.perf_counter() - t0
                spans = tracer.spans()
                covered = sum(s.duration for s in passes(spans, op="fwd")
                              + passes(spans, op="sum"))
                assert covered <= 1.05 * wall
                best = max(best, covered / wall)
        finally:
            net.close()
        assert best >= 0.7, best
