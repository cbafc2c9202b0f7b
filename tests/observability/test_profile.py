"""Cost model: the fold over pass spans, schema validation, the
annotations conv passes carry, and both consumers of the document.

There is no profiler object any more — the tracer is the one clock and
``cost_model_from_spans`` a fold over what it recorded — but the test
ids of the behaviours that survive are kept (``TestCostProfiler``,
``TestGlobalProfiler``): what they check is the cost *profile* of a
traced run.
"""

import json

import numpy as np
import pytest

from repro.core import Network
from repro.graph import build_layered_network
from repro.loadgen import ServiceModel
from repro.observability.profile import (
    COST_MODEL_SCHEMA,
    CostModelError,
    cost_model_from_spans,
    load_cost_model,
    render_cost_model,
    validate_cost_model,
    write_cost_model,
)
from repro.observability.tracing import Tracer, get_tracer, set_tracer
from repro.pram.costs import (
    direct_conv_task_cost,
    fft_cost,
    pointwise_product_cost,
)
from repro.serving.specialize import CostModel
from repro.tensor.conv_direct import direct_pass_cost
from repro.tensor.conv_fft import FftConvPlan


@pytest.fixture
def tracer():
    fresh = Tracer(enabled=True, process="test")
    previous = set_tracer(fresh)
    yield fresh
    set_tracer(previous)


def pass_span(tracer, edge, backend, op, seconds, **attrs):
    """Record one pass span the way ``Network._pass`` annotates it."""
    tracer.record(f"{op}.pass:{edge}", 0.0, seconds, category="pass",
                  edge=edge, backend=backend, op=op, **attrs)


def record_direct(tracer, edge, op, seconds, image, kernel):
    """A direct-conv pass span with the annotations ConvEdge gives."""
    cost = direct_pass_cost(image, kernel)
    pass_span(tracer, edge, "direct", op, seconds, flops=cost["flops"],
              bytes=cost["bytes"], image_shape=image, kernel_shape=kernel)


def entries_of(tracer):
    return cost_model_from_spans(tracer.spans(), tracer.dropped)["entries"]


def small_net(conv_mode="direct", size=8, **kwargs):
    graph = build_layered_network("CT", width=2, kernel=3,
                                  transfer="tanh", output_nodes=1)
    return Network(graph, input_shape=(size,) * 3, seed=3,
                   conv_mode=conv_mode, loss="euclidean", **kwargs)


def one_round(net, size=8):
    rng = np.random.default_rng(0)
    x = rng.standard_normal((size,) * 3)
    target = rng.standard_normal(net.output_nodes[0].shape)
    try:
        net.train_step(x, {net.output_nodes[0].name: target})
    finally:
        net.close()


class TestPassAnnotations:
    def test_direct_flops_match_table2(self):
        img, ker = (12, 12, 12), (3, 3, 3)
        cost = direct_pass_cost(img, ker)
        assert cost["flops"] == direct_conv_task_cost(img, ker)
        # The flat walk streams, per tap, the 10^3 outputs plus the
        # columns between rows at the 12-voxel pitch: 9*144 + 9*12 + 10.
        out, run = 10 ** 3, 1414
        assert cost["bytes"] == 8.0 * (27 * run + out)

    def test_fft_flops_charge_transform_plus_product(self):
        img, ker = (12, 12, 12), (3, 3, 3)
        cost = FftConvPlan(img, ker).pass_cost()
        assert cost["flops"] == fft_cost(img) + pointwise_product_cost(img)
        assert cost["bytes"] == 8.0 * 4 * 12**3


class TestCostProfiler:
    def test_disabled_record_is_noop(self):
        """Tracing off: a round records no pass span, the fold of
        nothing has no entries."""
        off = Tracer(enabled=False)
        previous = set_tracer(off)
        try:
            one_round(small_net())
        finally:
            set_tracer(previous)
        assert len(off) == 0
        assert cost_model_from_spans(off.spans())["entries"] == []

    def test_env_default_is_off(self, monkeypatch):
        """The profile has no switch of its own: it is the tracer's."""
        monkeypatch.delenv("REPRO_TRACING", raising=False)
        assert Tracer().enabled is False
        monkeypatch.setenv("REPRO_TRACING", "yes")
        assert Tracer().enabled is True

    def test_samples_aggregate_per_triple(self, tracer):
        pass_span(tracer, "e1", "fft", "fwd", 0.5, flops=100, bytes=8)
        pass_span(tracer, "e1", "fft", "fwd", 1.5, flops=100, bytes=8)
        pass_span(tracer, "e1", "fft", "bwd", 1.0, flops=50)
        entries = entries_of(tracer)
        assert len(entries) == 2
        fwd = next(e for e in entries if e["op"] == "fwd")
        assert fwd["count"] == 2
        assert fwd["seconds"] == pytest.approx(2.0)
        assert fwd["mean_seconds"] == pytest.approx(1.0)
        assert fwd["flops"] == 200
        assert fwd["bytes"] == 16
        assert fwd["flops_per_second"] == pytest.approx(100.0)

    def test_record_keeps_cost_and_shapes(self, tracer):
        record_direct(tracer, "edge", "upd", 0.25, (10,) * 3, (3,) * 3)
        entry = entries_of(tracer)[0]
        assert entry["flops"] == direct_conv_task_cost((10,) * 3, (3,) * 3)
        assert entry["image_shape"] == [10, 10, 10]
        assert entry["kernel_shape"] == [3, 3, 3]

    def test_only_pass_spans_of_the_three_ops_are_folded(self, tracer):
        """Task spans, other categories and ``sum`` passes are
        trace-only; entries come out sorted by (edge, backend, op)."""
        pass_span(tracer, "z", "direct", "fwd", 0.1)
        pass_span(tracer, "node", "sum", "sum", 0.1)
        tracer.record("fwd:a", 0.0, 1.0, category="fwd", worker=0)
        pass_span(tracer, "a", "transfer", "upd", 0.1)
        pass_span(tracer, "a", "transfer", "bwd", 0.1)
        keys = [(e["edge"], e["backend"], e["op"])
                for e in entries_of(tracer)]
        assert keys == [("a", "transfer", "bwd"), ("a", "transfer", "upd"),
                        ("z", "direct", "fwd")]

    def test_network_passes_populate_the_profiler(self, tracer):
        one_round(small_net())
        entries = validate_cost_model(cost_model_from_spans(
            tracer.spans(), tracer.dropped))["entries"]
        conv = [e for e in entries if e["edge"].startswith("conv_")]
        other = [e for e in entries if not e["edge"].startswith("conv_")]
        assert {(e["backend"], e["op"]) for e in conv} == {
            ("direct", "fwd"), ("direct", "bwd"), ("direct", "upd")}
        assert all(e["kernel_shape"] == [3, 3, 3] for e in conv)
        # What the conv-only clock never saw: the transfer edges.
        assert {(e["backend"], e["op"]) for e in other} == {
            ("transfer", "fwd"), ("transfer", "bwd"), ("transfer", "upd")}
        assert all(e["flops"] == 0 and e["kernel_shape"] is None
                   and e["seconds"] > 0 for e in other)

    def test_ring_overflow_fails_the_fold(self):
        """A ring that evicted spans cannot yield a complete model."""
        small = Tracer(enabled=True, max_spans=8)
        previous = set_tracer(small)
        try:
            one_round(small_net())
        finally:
            set_tracer(previous)
        assert len(small) == 8 and small.dropped > 0
        with pytest.raises(CostModelError, match="overflowed"):
            cost_model_from_spans(small.spans(), small.dropped)

    def test_ingest_past_the_ring_counts_as_dropped(self, tracer):
        """Worker spans arrive through ``ingest``; what does not fit is
        a loss like any other."""
        for i in range(5):
            pass_span(tracer, f"e{i}", "direct", "fwd", 0.1)
        small = Tracer(enabled=True, max_spans=3)
        assert small.ingest(tracer.drain()) == 5
        assert len(small) == 3 and small.dropped == 2


class TestCostModelDocument:
    def test_write_load_round_trip(self, tracer, tmp_path):
        record_direct(tracer, "e", "fwd", 0.1, (8,) * 3, (3,) * 3)
        path = str(tmp_path / "cost_model.json")
        write_cost_model(path, cost_model_from_spans(tracer.spans()))
        doc = load_cost_model(path)
        assert doc["schema"] == COST_MODEL_SCHEMA
        assert len(doc["entries"]) == 1

    def test_write_refuses_an_invalid_document(self, tmp_path):
        path = tmp_path / "cost_model.json"
        with pytest.raises(CostModelError, match="schema"):
            write_cost_model(str(path), {"schema": "v0"})
        assert not path.exists()

    def test_validate_rejects_bad_documents(self, tracer):
        good = cost_model_from_spans(tracer.spans())
        assert validate_cost_model(good) is good
        for mutate, pattern in [
            (lambda d: d.update(schema="v0"), "schema"),
            (lambda d: d.update(created="today"), "created"),
            (lambda d: d.update(entries={}), "entries"),
        ]:
            doc = dict(good)
            mutate(doc)
            with pytest.raises(CostModelError, match=pattern):
                validate_cost_model(doc)

    def test_validate_rejects_bad_entries(self, tracer):
        record_direct(tracer, "e", "fwd", 0.1, (8,) * 3, (3,) * 3)
        doc = cost_model_from_spans(tracer.spans())
        doc["entries"][0]["op"] = "diagonal"
        with pytest.raises(CostModelError, match="fwd|bwd|upd"):
            validate_cost_model(doc)
        doc["entries"][0]["op"] = "fwd"
        doc["entries"][0]["seconds"] = -1
        with pytest.raises(CostModelError, match="seconds"):
            validate_cost_model(doc)
        doc["entries"][0]["seconds"] = 0.1
        doc["entries"][0]["image_shape"] = [0, 8, 8]
        with pytest.raises(CostModelError, match="image_shape"):
            validate_cost_model(doc)

    def test_document_is_json_serialisable(self, tracer):
        record_direct(tracer, "e", "bwd", 0.1, (8,) * 3, (3,) * 3)
        json.dumps(cost_model_from_spans(tracer.spans()))

    def test_render_table(self, tracer):
        record_direct(tracer, "edge_a", "fwd", 0.1, (8,) * 3, (3,) * 3)
        text = render_cost_model(cost_model_from_spans(tracer.spans()))
        assert "edge_a" in text
        assert "gflop/s" in text


class TestConsumersTakeMixedDocuments:
    """Both readers of the document keep working now that it also holds
    non-conv entries (``flops == 0``, ``kernel_shape: null``)."""

    @pytest.fixture
    def doc(self, tracer):
        net = small_net()
        try:
            for seed in range(2):
                net.forward(np.random.default_rng(seed).standard_normal(
                    (8, 8, 8)))
        finally:
            net.close()
        return cost_model_from_spans(tracer.spans(), tracer.dropped)

    @staticmethod
    def conv_only(doc):
        return dict(doc, entries=[e for e in doc["entries"]
                                  if e["kernel_shape"] is not None])

    def test_cost_model_prices_conv_layers_as_before(self, doc):
        assert any(e["backend"] == "transfer" for e in doc["entries"])
        edges = sorted({e["edge"] for e in self.conv_only(doc)["entries"]})
        mixed, conv = CostModel(doc), CostModel(self.conv_only(doc))
        assert mixed.measured
        assert mixed.layer_sample(edges, "direct") == \
            conv.layer_sample(edges, "direct")
        assert mixed.layer_sample(edges, "direct")[1] == (8, 8, 8)
        assert mixed.rate(edges, "direct") == conv.rate(edges, "direct")
        assert mixed.base_rate() == conv.base_rate()
        # A transfer edge is not a conv layer's sample under any backend.
        assert mixed.layer_sample(["xfer_L2_0"], "direct") is None

    def test_service_model_charges_every_forward_pass(self, doc):
        fwd = [e for e in doc["entries"] if e["op"] == "fwd"]
        seconds = sum(e["mean_seconds"] for e in fwd)
        model = ServiceModel.from_cost_model(doc)
        assert model.seconds_per_voxel == pytest.approx(seconds / 8 ** 3)
        conv = ServiceModel.from_cost_model(self.conv_only(doc))
        assert conv.seconds_per_voxel < model.seconds_per_voxel


class TestGlobalProfiler:
    def test_get_set_round_trip(self):
        """The one clock is swappable: pass spans go to whichever
        tracer is installed, and the previous one comes back intact."""
        mine = Tracer(enabled=True)
        previous = set_tracer(mine)
        before = len(previous)
        try:
            assert get_tracer() is mine
            one_round(small_net())
        finally:
            set_tracer(previous)
        assert get_tracer() is previous and len(previous) == before
        assert cost_model_from_spans(mine.spans())["entries"]
