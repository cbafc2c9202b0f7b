"""Cost profiler: aggregation, schema validation, edge instrumentation."""

import json

import numpy as np
import pytest

from repro.core import Network
from repro.graph import build_layered_network
from repro.observability.profile import (
    COST_MODEL_SCHEMA,
    CostModelError,
    CostProfiler,
    get_profiler,
    load_cost_model,
    render_cost_model,
    set_profiler,
    validate_cost_model,
    write_cost_model,
)
from repro.pram.costs import (
    direct_conv_task_cost,
    fft_cost,
    pointwise_product_cost,
)
from repro.tensor.conv_direct import direct_pass_cost
from repro.tensor.conv_fft import FftConvPlan


@pytest.fixture
def profiler():
    fresh = CostProfiler(enabled=True)
    previous = set_profiler(fresh)
    yield fresh
    set_profiler(previous)


def record_direct(profiler, edge, op, seconds, image, kernel):
    """Record a direct-conv sample the way ConvEdge does."""
    cost = direct_pass_cost(image, kernel)
    profiler.record(edge, "direct", op, seconds, flops=cost["flops"],
                    bytes_moved=cost["bytes"], image_shape=image,
                    kernel_shape=kernel)


class TestPassAnnotations:
    def test_direct_flops_match_table2(self):
        img, ker = (12, 12, 12), (3, 3, 3)
        cost = direct_pass_cost(img, ker)
        assert cost["flops"] == direct_conv_task_cost(img, ker)
        out = 10 ** 3
        assert cost["bytes"] == 8.0 * (27 * out + out)

    def test_fft_flops_charge_transform_plus_product(self):
        img, ker = (12, 12, 12), (3, 3, 3)
        cost = FftConvPlan(img, ker).pass_cost()
        assert cost["flops"] == fft_cost(img) + pointwise_product_cost(img)
        assert cost["bytes"] == 8.0 * 4 * 12**3

    def test_padded_plan_charges_the_transform_it_runs(self):
        # fast_sizes pads 13 -> 15: the plan's cost is that of the 15^3
        # transform, not of the 13^3 image.
        plan = FftConvPlan((13,) * 3, (3,) * 3, fast_sizes=True)
        assert plan.transform_shape == (15, 15, 15)
        padded = (15,) * 3
        assert plan.pass_cost()["flops"] == \
            fft_cost(padded) + pointwise_product_cost(padded)


class TestCostProfiler:
    def test_disabled_record_is_noop(self):
        off = CostProfiler(enabled=False)
        off.record("e", "direct", "fwd", 0.1)
        assert len(off) == 0

    def test_env_default_is_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_PROFILE", raising=False)
        assert CostProfiler().enabled is False
        monkeypatch.setenv("REPRO_PROFILE", "yes")
        assert CostProfiler().enabled is True

    def test_samples_aggregate_per_triple(self, profiler):
        profiler.record("e1", "fft", "fwd", 0.5, flops=100, bytes_moved=8)
        profiler.record("e1", "fft", "fwd", 1.5, flops=100, bytes_moved=8)
        profiler.record("e1", "fft", "bwd", 1.0, flops=50)
        entries = profiler.entries()
        assert len(entries) == 2
        fwd = next(e for e in entries if e["op"] == "fwd")
        assert fwd["count"] == 2
        assert fwd["seconds"] == pytest.approx(2.0)
        assert fwd["mean_seconds"] == pytest.approx(1.0)
        assert fwd["flops"] == 200
        assert fwd["flops_per_second"] == pytest.approx(100.0)

    def test_record_keeps_cost_and_shapes(self, profiler):
        record_direct(profiler, "edge", "upd", 0.25, (10,) * 3, (3,) * 3)
        entry = profiler.entries()[0]
        assert entry["flops"] == direct_conv_task_cost((10,) * 3, (3,) * 3)
        assert entry["image_shape"] == [10, 10, 10]
        assert entry["kernel_shape"] == [3, 3, 3]

    def test_network_passes_populate_the_profiler(self, profiler):
        graph = build_layered_network("CT", width=2, kernel=3,
                                      transfer="tanh", output_nodes=1)
        net = Network(graph, input_shape=(8, 8, 8), seed=3,
                      conv_mode="direct", loss="euclidean")
        try:
            rng = np.random.default_rng(0)
            x = rng.standard_normal((8, 8, 8))
            out_name = net.output_nodes[0].name
            target = rng.standard_normal(net.output_nodes[0].shape)
            net.train_step(x, {out_name: target})
        finally:
            net.close()
        ops = {(e["backend"], e["op"]) for e in profiler.entries()}
        assert ("direct", "fwd") in ops
        assert ("direct", "bwd") in ops
        assert ("direct", "upd") in ops
        assert all(e["edge"].startswith("conv_")
                   for e in profiler.entries())

    def test_padded_fft_edge_is_credited_its_own_plan(self, profiler):
        # Regression: the profiler used to rebuild an unpadded plan from
        # the shapes, crediting a fast_sizes edge (13^3 image, 15^3
        # transform) the FLOPs of a 13^3 transform.
        graph = build_layered_network("CT", width=1, kernel=3,
                                      transfer="tanh", output_nodes=1)
        net = Network(graph, input_shape=(13, 13, 13), seed=3,
                      conv_mode="fft", fft_fast_sizes=True)
        try:
            net.forward(np.random.default_rng(0).standard_normal((13,) * 3))
        finally:
            net.close()
        expected = FftConvPlan((13,) * 3, (3,) * 3,
                               fast_sizes=True).pass_cost()
        unpadded = FftConvPlan((13,) * 3, (3,) * 3).pass_cost()
        assert expected["flops"] > unpadded["flops"]
        for entry in profiler.entries():
            assert entry["backend"] == "fft"
            assert entry["flops"] == entry["count"] * expected["flops"]
            assert entry["bytes"] == entry["count"] * expected["bytes"]
            assert entry["image_shape"] == [13, 13, 13]


class TestCostModelDocument:
    def test_write_load_round_trip(self, profiler, tmp_path):
        record_direct(profiler, "e", "fwd", 0.1, (8,) * 3, (3,) * 3)
        path = str(tmp_path / "cost_model.json")
        write_cost_model(path, profiler)
        doc = load_cost_model(path)
        assert doc["schema"] == COST_MODEL_SCHEMA
        assert len(doc["entries"]) == 1

    def test_validate_rejects_bad_documents(self, profiler):
        good = profiler.cost_model()
        assert validate_cost_model(good) is good
        for mutate, pattern in [
            (lambda d: d.update(schema="v0"), "schema"),
            (lambda d: d.update(created="today"), "created"),
            (lambda d: d.update(entries={}), "entries"),
        ]:
            doc = dict(profiler.cost_model())
            mutate(doc)
            with pytest.raises(CostModelError, match=pattern):
                validate_cost_model(doc)

    def test_validate_rejects_bad_entries(self, profiler):
        record_direct(profiler, "e", "fwd", 0.1, (8,) * 3, (3,) * 3)
        doc = profiler.cost_model()
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

    def test_document_is_json_serialisable(self, profiler):
        record_direct(profiler, "e", "bwd", 0.1, (8,) * 3, (3,) * 3)
        json.dumps(profiler.cost_model())

    def test_render_table(self, profiler):
        record_direct(profiler, "edge_a", "fwd", 0.1, (8,) * 3, (3,) * 3)
        text = render_cost_model(profiler.cost_model())
        assert "edge_a" in text
        assert "gflop/s" in text


class TestGlobalProfiler:
    def test_get_set_round_trip(self):
        mine = CostProfiler(enabled=True)
        previous = set_profiler(mine)
        try:
            assert get_profiler() is mine
        finally:
            set_profiler(previous)
        assert get_profiler() is previous
