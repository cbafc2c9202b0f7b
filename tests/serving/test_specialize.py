"""Per-layer inference specialization (ZNNi part a, arXiv:1606.05688).

The planner's contract, property-tested:

* **Budget compliance** — a returned plan never exceeds the memory
  budget; when nothing fits, the refusal is a typed
  :class:`PlanInfeasible`, not a silently over-budget plan.
* **Minimality** — the plan is the argmin of exactly what
  :func:`evaluate_candidate` computes over exactly what
  :func:`enumerate_candidate_tiles` enumerates (same tie-break key), so
  the optimum is independently recomputable.
* **Degenerate volumes** — a volume at the field of view collapses to
  a single whole-volume tile.
* **Purity** — equal inputs give byte-identical plan JSON.

Plus the layered determinism contract (docs/serving.md "Per-layer
specialization"): all-direct plans serve bitwise identically to the
unspecialized whole-volume network; FFT-flipped plans are
tolerance-equal (FFT and direct convolution differ in floating-point
rounding, ~1e-14); any *fixed* plan is bitwise reproducible run to
run.
"""

import json
import os
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import dump_layered_spec
from repro.graph.builders import dense_twin
from repro.observability import get_registry as metrics_registry
from repro.serving import (
    InferenceServer,
    ModelRegistry,
    ModelSpec,
    PlanInfeasible,
    SpecializationPlan,
    TilePlan,
    WorkerConfig,
    plan_specialization,
    plan_volume,
)
from repro.serving.specialize import (
    CostModel,
    enumerate_candidate_tiles,
    evaluate_candidate,
)
from repro.utils.shapes import voxels


@pytest.fixture(scope="session")
def big_kernel_model(tmp_path_factory):
    """A CT net with kernel 7 (fov 7): large enough that the analytic
    FLOP comparison flips its conv layer to FFT at serving tiles."""
    root = str(tmp_path_factory.mktemp("specialize-k7"))
    path = os.path.join(root, "k7.spec")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_layered_spec("CT", [1], kernel=7, transfer="tanh"))
    return ModelSpec.from_files("k7", path, conv_mode="direct")


def twin_of(spec):
    return dense_twin(spec.spec, **spec.builder_kwargs)


def _min_key(spec, volume, tile_voxels=None, memory_bytes=None):
    """The planner's argmin, recomputed from the public pieces."""
    best = None
    twin = twin_of(spec)
    for tile in enumerate_candidate_tiles(volume, spec.fov,
                                          tile_voxels=tile_voxels):
        result = evaluate_candidate(twin, volume, tile)
        if (memory_bytes is not None
                and result["working_set_bytes"] > memory_bytes):
            continue
        key = (result["predicted_seconds"], result["num_tiles"],
               -voxels(tile), tile)
        if best is None or key < best[0]:
            best = (key, result)
    return best


class TestCostModel:
    def test_analytic_defaults(self):
        model = CostModel()
        assert not model.measured
        assert model.source == "analytic"
        assert model.base_rate() == 1.0
        assert model.rate(["conv_x"], "fft") == 1.0

    def test_measured_rate_ladder(self):
        def entry(edge, backend, flops, seconds):
            return {"edge": edge, "backend": backend, "op": "fwd",
                    "count": 1, "seconds": seconds,
                    "mean_seconds": seconds, "flops": flops,
                    "flops_per_second": flops / seconds, "bytes": 0}
        doc = {"schema": "repro.cost_model/v1", "created": 0.0,
               "entries": [entry("conv_a", "direct", 100.0, 1.0),
                           entry("conv_b", "fft", 300.0, 1.0),
                           # Non-fwd ops are ignored by the ladder.
                           dict(entry("conv_a", "direct", 9e9, 1.0),
                                op="bwd")]}
        model = CostModel(doc, source="test")
        assert model.measured
        # Edge-level entry wins ...
        assert model.rate(["conv_a"], "direct") == pytest.approx(100.0)
        # ... unknown edge falls back to the backend's global rate ...
        assert model.rate(["conv_zzz"], "fft") == pytest.approx(300.0)
        # ... unknown backend falls back to the overall rate.
        assert model.rate(["conv_zzz"], "direct") == pytest.approx(100.0)
        assert model.base_rate() == pytest.approx(400.0 / 2.0)

    @staticmethod
    def _entry(edge, backend, flops, seconds, shape=None, count=1):
        return {"edge": edge, "backend": backend, "op": "fwd",
                "count": count, "seconds": seconds,
                "mean_seconds": seconds / count, "flops": flops,
                "flops_per_second": flops / seconds, "bytes": 0,
                "image_shape": list(shape) if shape else None}

    def test_layer_sample_sums_means_under_shape_consensus(self):
        doc = {"schema": "repro.cost_model/v1", "created": 0.0,
               "entries": [
                   self._entry("conv_a", "fft", 8.0, 1.0,
                               shape=(16, 16, 16), count=2),
                   self._entry("conv_b", "fft", 4.0, 0.1,
                               shape=(16, 16, 16)),
                   self._entry("conv_c", "fft", 4.0, 0.1,
                               shape=(20, 16, 16)),
                   self._entry("conv_d", "fft", 4.0, 0.1)]}
        model = CostModel(doc, source="test")
        seconds, shape = model.layer_sample(["conv_a", "conv_b"], "fft")
        assert seconds == pytest.approx(0.5 + 0.1)  # per-forward means
        assert shape == (16, 16, 16)
        # Any edge unmeasured, shape-less, or shape-conflicting: None.
        assert model.layer_sample(["conv_a", "conv_zzz"], "fft") is None
        assert model.layer_sample(["conv_a", "conv_c"], "fft") is None
        assert model.layer_sample(["conv_a", "conv_d"], "fft") is None
        assert model.layer_sample(["conv_a"], "direct") is None

    def test_measured_layer_seconds_override_flop_attribution(
            self, small_model):
        """At the profiled shape, a layer is priced at its *measured*
        wall-clock, not at FLOPs over a blended rate.

        The profiler bills every FFT edge a full image transform even
        when the transform cache shares it across the layer (the first
        edge pays, the rest hit), so per-edge attributed FLOPs
        over-count the layer and a blended rate misprices it near the
        crossover.  With ``image_shape`` present the planner must use
        the summed measured seconds directly — here they say this
        kernel-2 layer (analytically a decisive direct win) measured
        faster under FFT, and the decision must follow the measurement.
        """
        from repro.pram.costs import fft_cost, pointwise_product_cost

        spec = small_model.model_spec()
        tile = (16, 16, 16)
        # Profiler-style attribution: image + output transform and one
        # spectral product billed to each of layer 1's two edges.
        f_edge = 2 * fft_cost(tile) + pointwise_product_cost(tile)
        doc = {"schema": "repro.cost_model/v1", "created": 0.0,
               "entries": [
                   self._entry("conv_L1_0_0", "direct", 1e6, 1.0,
                               shape=tile),
                   self._entry("conv_L1_0_1", "direct", 1e6, 1.0,
                               shape=tile),
                   self._entry("conv_L1_0_0", "fft", f_edge, 0.5,
                               shape=tile),
                   self._entry("conv_L1_0_1", "fft", f_edge, 0.1,
                               shape=tile)]}
        result = evaluate_candidate(twin_of(spec), (24, 24, 24), tile,
                                    doc)
        layer1 = next(r for r in result["layers"] if r["layer"] == 1)
        # Candidate shape == profiled shape: the formula ratio is 1, so
        # predictions are exactly the measured sums — the inflated
        # per-edge FFT FLOPs never enter.
        assert layer1["direct_seconds"] == pytest.approx(2.0)
        assert layer1["fft_seconds"] == pytest.approx(0.6)
        assert layer1["mode"] == "fft"
        # Without shapes the same numbers fall back to rate pricing,
        # which reprices the layer through the analytic formulas.
        for entry in doc["entries"]:
            entry["image_shape"] = None
        unscaled = evaluate_candidate(twin_of(spec), (24, 24, 24), tile,
                                      doc)
        layer1_rate = next(r for r in unscaled["layers"]
                           if r["layer"] == 1)
        assert layer1_rate["fft_seconds"] != pytest.approx(0.6)


class TestEnumerateCandidates:
    def test_endpoints_present(self, small_model):
        spec = small_model.model_spec()
        tiles = enumerate_candidate_tiles((24, 24, 24), spec.fov)
        assert (24, 24, 24) in tiles  # whole volume
        assert (5, 5, 5) in tiles     # fov floor
        assert len(tiles) == len(set(tiles))
        for tile in tiles:
            assert all(f <= t <= 24 for t, f in zip(tile, spec.fov))

    def test_contains_the_default_planners_tile(self):
        # The tiled-serving benchmark model (fov 18) at 48^3 under a
        # 36^3 budget: the default planner's 28 x 33 x 48 is a candidate.
        spec = ModelSpec("tiled48", "CTPCTPCT", conv_mode="fft",
                         builder_kwargs=dict(width=[4, 4, 1], kernel=3,
                                             window=2, transfer="tanh"))
        tile = plan_volume((48,) * 3, spec.fov, max_voxels=46656).input_tile
        assert spec.fov == (18, 18, 18) and tile == (28, 33, 48)
        assert tile in enumerate_candidate_tiles((48,) * 3, spec.fov,
                                                 tile_voxels=46656)

    def test_budget_filters(self, small_model):
        spec = small_model.model_spec()
        tiles = enumerate_candidate_tiles((24, 24, 24), spec.fov,
                                          tile_voxels=1000)
        assert tiles
        assert all(voxels(t) <= 1000 for t in tiles)

    def test_infeasible_geometry(self, small_model):
        spec = small_model.model_spec()
        with pytest.raises(PlanInfeasible):
            enumerate_candidate_tiles((4, 24, 24), spec.fov)
        with pytest.raises(PlanInfeasible):
            enumerate_candidate_tiles((24, 24, 24), spec.fov,
                                      tile_voxels=voxels(spec.fov) - 1)


class TestEvaluateCandidate:
    def test_small_kernel_prefers_direct(self, small_model):
        spec = small_model.model_spec()
        result = evaluate_candidate(twin_of(spec), (24, 24, 24),
                                    (24, 24, 24))
        assert result["conv_modes"]
        assert set(result["conv_modes"].values()) == {"direct"}
        for row in result["layers"]:
            assert row["direct_seconds"] <= row["fft_seconds"]
        assert result["working_set_bytes"] > 0
        assert result["num_tiles"] == 1

    def test_big_kernel_flips_to_fft(self, big_kernel_model):
        spec = big_kernel_model
        result = evaluate_candidate(twin_of(spec), (32, 32, 32),
                                    (32, 32, 32))
        assert set(result["conv_modes"].values()) == {"fft"}
        # The FFT choice charges its spectra to the working set.
        direct_only = evaluate_candidate(twin_of(spec), (32, 32, 32),
                                         (8, 8, 8))
        assert result["working_set_bytes"] > direct_only["working_set_bytes"]

    def test_fov_matches_spec(self, small_model, big_kernel_model):
        for spec in (small_model.model_spec(), big_kernel_model):
            result = evaluate_candidate(twin_of(spec), (32, 32, 32),
                                        (32, 32, 32))
            assert result["fov"] == spec.fov


def test_plan_builds_the_twin_once(small_model, monkeypatch):
    """Every candidate is priced on one twin: one build per plan,
    however many candidates there are."""
    from repro.serving import specialize

    builds = []

    def counting(spec, **kwargs):
        builds.append(spec)
        return dense_twin(spec, **kwargs)

    monkeypatch.setattr(specialize, "dense_twin", counting)
    plan = plan_specialization(small_model.model_spec(), (24, 24, 24))
    assert plan.candidates > 1
    assert len(builds) == 1


class TestPlannerProperties:
    @given(extra=st.tuples(st.integers(0, 23), st.integers(0, 23),
                           st.integers(0, 23)))
    @settings(max_examples=20, deadline=None)
    def test_plan_is_the_argmin(self, small_model, extra):
        spec = small_model.model_spec()
        volume = tuple(f + e for f, e in zip(spec.fov, extra))
        plan = plan_specialization(spec, volume)
        best_key, best = _min_key(spec, volume)
        assert plan.input_tile == best["input_tile"]
        assert plan.predicted_seconds == best["predicted_seconds"]
        assert plan.num_tiles == best["num_tiles"]

    @given(extra=st.tuples(st.integers(0, 11), st.integers(0, 11),
                           st.integers(0, 11)))
    @settings(max_examples=20, deadline=None)
    def test_num_tiles_is_the_tile_plans(self, small_model, extra):
        """The count the planner prices is the count the server runs."""
        spec = small_model.model_spec()
        volume = tuple(f + e for f, e in zip(spec.fov, extra))
        twin = twin_of(spec)
        for tile in enumerate_candidate_tiles(volume, spec.fov):
            result = evaluate_candidate(twin, volume, tile)
            plan = TilePlan(volume, spec.fov, tile)
            assert result["num_tiles"] == plan.num_tiles == len(plan.tiles)

    @given(extra=st.tuples(st.integers(0, 23), st.integers(0, 23),
                           st.integers(0, 23)),
           memory_kb=st.integers(1, 4096))
    @settings(max_examples=20, deadline=None)
    def test_memory_budget_is_respected_or_refused(self, small_model,
                                                   extra, memory_kb):
        spec = small_model.model_spec()
        volume = tuple(f + e for f, e in zip(spec.fov, extra))
        memory_bytes = memory_kb * 1024
        try:
            plan = plan_specialization(spec, volume,
                                       memory_bytes=memory_bytes)
        except PlanInfeasible:
            # Refusal must mean refusal: no enumerated candidate fits.
            assert _min_key(spec, volume,
                            memory_bytes=memory_bytes) is None
            return
        assert plan.working_set_bytes <= memory_bytes

    @given(extra=st.tuples(st.integers(0, 23), st.integers(0, 23),
                           st.integers(0, 23)))
    @settings(max_examples=15, deadline=None)
    def test_plan_json_is_pure(self, small_model, extra):
        spec = small_model.model_spec()
        volume = tuple(f + e for f, e in zip(spec.fov, extra))
        first = plan_specialization(spec, volume)
        second = plan_specialization(spec, volume)
        assert first == second
        assert first.to_json().encode() == second.to_json().encode()

    def test_degenerate_volume_is_whole_volume(self, small_model):
        spec = small_model.model_spec()
        plan = plan_specialization(spec, spec.fov)
        assert plan.input_tile == spec.fov
        assert plan.num_tiles == 1

    def test_infeasible_volume_raises(self, small_model):
        spec = small_model.model_spec()
        with pytest.raises(PlanInfeasible):
            plan_specialization(spec, (4, 4, 4))
        with pytest.raises(PlanInfeasible, match="memory budget"):
            plan_specialization(spec, (24, 24, 24), memory_bytes=10)

    def test_big_kernel_plan_uses_fft(self, big_kernel_model):
        plan = plan_specialization(big_kernel_model, (32, 32, 32))
        assert plan.uses_fft()
        assert {mode for _, mode in plan.layer_modes} == {"fft"}


class TestPlanSerialization:
    def test_round_trip(self, small_model, tmp_path):
        spec = small_model.model_spec()
        plan = plan_specialization(spec, (24, 24, 24),
                                   memory_bytes=1 << 24)
        doc = json.loads(plan.to_json())
        assert doc["schema"] == "repro.specialize/v1"
        assert SpecializationPlan.from_doc(doc) == plan
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json())
        assert SpecializationPlan.from_file(str(path)) == plan

    def test_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            SpecializationPlan.from_doc({"schema": "nope"})
        with pytest.raises(ValueError, match="dict"):
            SpecializationPlan.from_doc([1, 2])

    def test_missing_field_is_named(self, small_model):
        doc = plan_specialization(small_model.model_spec(),
                                  (24, 24, 24)).to_doc()
        del doc["input_tile"]
        with pytest.raises(ValueError,
                           match="field 'input_tile' is missing"):
            SpecializationPlan.from_doc(doc)
        del doc["memory_bytes"]  # optional: absent means no cap
        doc["input_tile"] = [9, 9, 9]
        assert SpecializationPlan.from_doc(doc).memory_bytes is None

    @pytest.mark.parametrize("field, value", [
        ("num_tiles", "eight"),
        ("volume_shape", 24),
        ("layer_modes", [[0]]),
        ("conv_modes", ["fft"]),
        ("predicted_seconds", None),
    ])
    def test_mistyped_field_is_named(self, small_model, field, value):
        doc = plan_specialization(small_model.model_spec(),
                                  (24, 24, 24)).to_doc()
        doc[field] = value
        with pytest.raises(ValueError, match=f"field '{field}' is malformed"):
            SpecializationPlan.from_doc(doc)

    def test_serve_exits_2_on_a_malformed_plan(self, small_model,
                                               tmp_path, capsys):
        from repro.cli import main

        doc = plan_specialization(small_model.model_spec(),
                                  (24, 24, 24)).to_doc()
        doc["num_tiles"] = "eight"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        assert main(["serve", "--spec", small_model.spec_path,
                     "--specialize", str(path)]) == 2
        assert "field 'num_tiles' is malformed" in capsys.readouterr().err

    def test_plan_is_picklable_and_hashable(self, small_model):
        spec = small_model.model_spec()
        plan = plan_specialization(spec, (24, 24, 24))
        clone = pickle.loads(pickle.dumps(plan))
        assert clone == plan
        assert hash(clone) == hash(plan)

    def test_covers(self, small_model):
        spec = small_model.model_spec()
        plan = plan_specialization(spec, (24, 24, 24))
        assert plan.covers((24, 24, 24))
        assert plan.covers((30, 40, 50))
        assert not plan.covers(tuple(t - 1 for t in plan.input_tile))
        assert not plan.covers("garbage")


class TestDeterminismContract:
    def test_all_direct_plan_is_bitwise_vs_unspecialized(self,
                                                         small_model):
        """An all-direct plan — even a *tiled* one — serves bitwise
        identically to the whole-volume unspecialized network
        (translation covariance + fixed tap order)."""
        spec = small_model.model_spec()
        volume = np.random.default_rng(7).standard_normal((17, 17, 17))
        # Force tiling: 1000 voxels < 17^3.
        plan = plan_specialization(spec, volume.shape, tile_voxels=1000)
        assert not plan.uses_fft()
        assert plan.num_tiles > 1
        reg = ModelRegistry(max_models=2)
        reg.register(spec)
        reg.set_plan(plan)
        specialized = reg.warm(spec.name, plan.input_tile,
                               conv_modes=plan.conv_mode_map)
        served = specialized.run(volume)
        reference = reg.warm(spec.name, volume.shape)
        expected = reference.run(volume)
        reg.close()
        assert np.array_equal(served, expected)

    def test_fft_plan_is_tolerance_equal(self, big_kernel_model):
        """A plan that flips layers to FFT changes the arithmetic, so
        the contract is tolerance equality, not bitwise."""
        spec = big_kernel_model
        # 32^3 is past the k=7 analytic crossover; 16^3 is not.
        volume = np.random.default_rng(8).standard_normal((32, 32, 32))
        plan = plan_specialization(spec, volume.shape)
        assert plan.uses_fft()
        reg = ModelRegistry(max_models=2)
        reg.register(spec)
        specialized = reg.warm(spec.name, plan.input_tile,
                               conv_modes=plan.conv_mode_map)
        served = specialized.run(volume)
        reference = reg.warm(spec.name, volume.shape)
        expected = reference.run(volume)
        reg.close()
        np.testing.assert_allclose(served, expected,
                                   rtol=1e-10, atol=1e-12)

    def test_fixed_plan_is_bitwise_reproducible(self, big_kernel_model):
        spec = big_kernel_model
        volume = np.random.default_rng(9).standard_normal((16, 16, 16))
        plan = plan_specialization(spec, volume.shape)
        reg = ModelRegistry(max_models=2)
        reg.register(spec)
        warm = reg.warm(spec.name, plan.input_tile,
                        conv_modes=plan.conv_mode_map)
        first = warm.run(volume)
        second = warm.run(volume)
        reg.close()
        assert np.array_equal(first, second)


class TestRegistryIntegration:
    def test_set_plan_requires_registration(self, small_model):
        spec = small_model.model_spec()
        plan = plan_specialization(spec, (24, 24, 24))
        reg = ModelRegistry()
        with pytest.raises(KeyError, match="unknown model"):
            reg.set_plan(plan)
        reg.register(spec)
        assert reg.set_plan(plan) is plan
        assert reg.plan_for(spec.name) is plan
        assert reg.plans() == [plan]
        reg.close()

    def test_reregister_drops_stale_plan(self, small_model):
        spec = small_model.model_spec()
        plan = plan_specialization(spec, (24, 24, 24))
        reg = ModelRegistry()
        reg.register(spec)
        reg.set_plan(plan)
        # Re-registering an *equal* spec keeps the plan (same graph) …
        reg.register(small_model.model_spec())
        assert reg.plan_for(spec.name) is plan
        # … but a changed spec invalidates it.
        reg.register(small_model.model_spec(conv_mode="fft"))
        assert reg.plan_for(spec.name) is None
        reg.close()

    def test_warm_cache_keyed_by_modes(self, small_model):
        spec = small_model.model_spec()
        reg = ModelRegistry(max_models=4)
        reg.register(spec)
        plain = reg.warm(spec.name, (9, 9, 9))
        moded = reg.warm(spec.name, (9, 9, 9),
                         conv_modes={edge: "direct"
                                     for edge in plain.network.conv_modes})
        assert plain is not moded
        assert reg.warm(spec.name, (9, 9, 9)) is plain
        reg.close()

    def test_resolve_is_the_plan_rule_for_serving_and_prewarm(
            self, small_model):
        spec = small_model.model_spec()
        splan = plan_specialization(spec, (17, 17, 17), tile_voxels=1000)
        reg = ModelRegistry(max_models=4)
        reg.register(spec)
        reg.set_plan(splan)
        # Covered: the plan's tile and mode map, stamped on the TilePlan.
        warm, plan = reg.resolve(spec.name, (17, 17, 17))
        assert warm.input_tile == plan.input_tile == splan.input_tile
        assert dict(plan.conv_modes) == dict(splan.conv_mode_map)
        assert reg.prewarm_all((17, 17, 17)) == {
            spec.name: splan.input_tile}
        assert reg.resolve(spec.name, (17, 17, 17))[0] is warm
        # Not covered (smaller than the plan tile): the generic path.
        small = tuple(t - 1 for t in splan.input_tile)
        warm, plan = reg.resolve(spec.name, small, tile_voxels=1000)
        assert plan.conv_modes is None and warm.conv_modes is None
        assert plan == plan_volume(small, spec.fov, max_voxels=1000)
        assert reg.prewarm_all(small, 1000) == {
            spec.name: plan.input_tile}
        reg.close()

    def test_pipeline_serves_specialized(self, small_model):
        spec = small_model.model_spec()
        volume = np.random.default_rng(3).standard_normal((17, 17, 17))
        plan = plan_specialization(spec, volume.shape, tile_voxels=1000)
        reg = ModelRegistry(max_models=2)
        reg.register(spec)
        reg.set_plan(plan)
        counter = metrics_registry().counter(
            "serving.requests.specialized")
        before = counter.value
        server = InferenceServer(reg, num_workers=1).start()
        try:
            served = server.infer(spec.name, volume, timeout=60.0)
        finally:
            server.stop()
        assert counter.value == before + 1
        reference = reg.warm(spec.name, volume.shape)
        assert np.array_equal(served, reference.run(volume))
        reg.close()

    def test_pipeline_falls_back_when_plan_does_not_cover(self,
                                                          small_model):
        spec = small_model.model_spec()
        plan = plan_specialization(spec, (24, 24, 24))
        assert not plan.covers((9, 9, 9))  # smaller than the plan tile
        reg = ModelRegistry(max_models=2)
        reg.register(spec)
        reg.set_plan(plan)
        counter = metrics_registry().counter(
            "serving.requests.specialized")
        before = counter.value
        server = InferenceServer(reg, num_workers=1).start()
        try:
            served = server.infer(
                spec.name,
                np.random.default_rng(4).standard_normal((9, 9, 9)),
                timeout=60.0)
        finally:
            server.stop()
        assert counter.value == before  # generic path
        assert served.shape == (5, 5, 5)
        reg.close()


class TestFleetPlumbing:
    def test_worker_config_plans_pickle(self, small_model):
        spec = small_model.model_spec()
        plan = plan_specialization(spec, (24, 24, 24))
        config = WorkerConfig(specs=(spec,), plans=(plan,))
        clone = pickle.loads(pickle.dumps(config))
        assert clone.plans == (plan,)

    def test_fleet_rejects_plan_for_unknown_model(self, small_model):
        from repro.serving import FleetServer

        spec = small_model.model_spec()
        other = plan_specialization(spec, (24, 24, 24))
        other = SpecializationPlan.from_doc(
            dict(other.to_doc(), model="nope"))
        with pytest.raises(ValueError, match="unknown model"):
            FleetServer([spec], num_workers=1, plans=[other])

    def test_fleet_forwards_plans_to_worker_config(self, small_model):
        from repro.serving import FleetServer

        spec = small_model.model_spec()
        plan = plan_specialization(spec, (24, 24, 24))
        fleet = FleetServer([spec], num_workers=1, plans=[plan])
        assert fleet._worker_config.plans == (plan,)


class TestSpecializeCLI:
    def test_plan_only_json(self, small_model, capsys, tmp_path):
        from repro.cli import main

        out = tmp_path / "plan.json"
        code = main(["specialize", "--spec", small_model.spec_path,
                     "--name", "small", "--volume", "16",
                     "--no-measure", "--json", "--out", str(out)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.specialize/v1"
        assert doc["model"] == "small"
        # --out wrote the same canonical document.
        assert json.loads(out.read_text()) == doc

    def test_infeasible_exit_code(self, small_model, capsys):
        from repro.cli import main

        code = main(["specialize", "--spec", small_model.spec_path,
                     "--volume", "3", "--no-measure"])
        assert code == 65
        assert "infeasible" in capsys.readouterr().err
