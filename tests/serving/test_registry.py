"""Model registry: spec loading, warm cache LRU, checkpoint restore."""

import numpy as np
import pytest

from repro.core import field_of_view_of
from repro.core.inference import dense_equivalent_network
from repro.observability import get_registry as metrics_registry
from repro.resilience import FaultPlan, InjectedFault, clear_plan, \
    install_plan
from repro.serving import ModelRegistry, ModelSpec, WarmModel


def mid_sum_occurrences(network):
    """The ``fwd`` fault occurrences at which *network*'s one-worker
    walk stops with some node's sum part-filled."""
    added = {id(node): 0 for node in network.nodes.values()}
    found = []
    for k, edge in enumerate(network._walk, 1):
        if any(0 < added[id(node)] < len(node.in_edges)
               for node in network.nodes.values()):
            found.append(k)
        added[id(edge.dst)] += 1
    return found


class TestModelSpec:
    def test_from_files(self, small_model):
        spec = small_model.model_spec()
        assert spec.spec == "CTPCT"
        assert spec.builder_kwargs["width"] == [2, 1]
        assert spec.fov == small_model.fov

    def test_explicit_graph_spec_rejected(self, tmp_path):
        path = tmp_path / "explicit.spec"
        path.write_text("[node input]\n[node out]\n"
                        "[edge t]\ntype = transfer\nsrc = input\n"
                        "dst = out\ntransfer = tanh\n")
        with pytest.raises(ValueError, match="layered"):
            ModelSpec.from_files("x", path)


class TestWarmModel:
    def test_checkpoint_restores_into_twin(self, small_model, volume):
        """The twin built straight from the checkpoint (no pooling net
        in memory) matches dense_equivalent_network built by copying."""
        warm = WarmModel(small_model.model_spec(), volume.shape)
        served = warm.run(volume)
        reference = dense_equivalent_network(
            small_model.pool_network, small_model.spec, volume.shape,
            conv_mode="direct", **small_model.builder_kwargs())
        expected = reference.forward(volume)[
            reference.output_nodes[0].name]
        reference.close()
        warm.close()
        assert np.array_equal(served, expected)

    def test_kernel_spectra_pinned(self, small_model):
        warm = WarmModel(small_model.model_spec(conv_mode="fft"),
                         (10, 10, 10))
        assert "ker" in warm.network.cache.pinned_kinds
        baseline = warm.network.cache.stats.computed
        warm.run(np.zeros((10, 10, 10)))
        warm.run(np.ones((10, 10, 10)))
        # Forward passes after prewarm never recompute kernel spectra:
        # only image transforms are computed, and their count is
        # identical between the two post-prewarm passes.
        per_pass = warm.network.cache.stats.computed - baseline
        assert per_pass % 2 == 0
        warm.close()

    def test_plan_uses_fixed_tile(self, small_model):
        warm = WarmModel(small_model.model_spec(), (9, 9, 9))
        plan = warm.plan((17, 17, 17))
        assert plan.input_tile == (9, 9, 9)
        assert plan.dense_shape == (13, 13, 13)
        with pytest.raises(ValueError, match="smaller"):
            warm.plan((8, 8, 8))
        warm.close()

    @pytest.mark.parametrize("inherited", [
        dict(sparsity_schedule=[1, 1]), dict(skip_kernels=False)],
        ids=["sparsity_schedule", "skip_kernels"])
    def test_inherited_builder_flags_cannot_split_fov_from_network(
            self, inherited):
        """One twin rule: what a training spec's ``sparsity_schedule``
        or ``skip_kernels`` means to the twin is decided once, for
        ``spec.fov``, the warm network and ``dense_equivalent_network``
        alike (the fov used to honour the schedule while the network
        dropped it, so every tiled request died on a shape mismatch)."""
        kwargs = dict(width=[2, 1], kernel=3, window=2, transfer="tanh",
                      **inherited)
        spec = ModelSpec("m", "CTPCT", conv_mode="direct",
                         builder_kwargs=kwargs)
        volume = np.random.default_rng(1).standard_normal((12, 12, 12))
        registry = ModelRegistry()
        registry.register(spec)
        warm, plan = registry.resolve("m", volume.shape, tile_voxels=1000)
        assert spec.fov == field_of_view_of(warm.network) == (8, 8, 8)
        assert plan.num_tiles > 1
        served = warm.run(volume, plan)
        twin = dense_equivalent_network(
            warm.network, "CTPCT", volume.shape, conv_mode="direct",
            **kwargs)
        assert field_of_view_of(twin) == spec.fov
        expected = twin.forward(volume)[twin.output_nodes[0].name]
        twin.close()
        registry.close()
        assert np.array_equal(served, expected)


class TestFailedWalk:
    @pytest.fixture(autouse=True)
    def clean_faults(self):
        clear_plan()
        yield
        clear_plan()

    def test_every_fwd_fault_leaves_the_twin_serving(self):
        """A request that fails at any ``fwd`` occurrence of its walk,
        mid-sum ones included, leaves a twin whose next replies are a
        clean run's bits."""
        spec = ModelSpec("ctct", "CTCT", builder_kwargs=dict(
            width=2, kernel=3, transfer="linear", final_transfer="linear",
            output_nodes=1), seed=7, conv_mode="direct")
        volume = np.random.default_rng(0).random((12, 12, 12))
        warm = WarmModel(spec, (10, 10, 10))
        try:
            clean = warm.run(volume).tobytes()
            assert mid_sum_occurrences(warm.network)
            for k in range(1, len(warm.network._walk) + 1):
                install_plan(FaultPlan.from_string(f"fail:fwd:{k}"))
                with pytest.raises(InjectedFault):
                    warm.run(volume)
                clear_plan()
                replies = [warm.run(volume).tobytes() for _ in range(2)]
                assert replies == [clean, clean], k
        finally:
            warm.close()


class TestModelRegistry:
    def test_unknown_model(self, registry):
        with pytest.raises(KeyError, match="unknown model"):
            registry.warm("nope", (9, 9, 9))
        with pytest.raises(KeyError, match="unknown model"):
            registry.spec("nope")

    def test_hit_and_miss(self, registry):
        first = registry.warm("small", (9, 9, 9))
        again = registry.warm("small", (9, 9, 9))
        assert first is again
        other = registry.warm("small", (10, 10, 10))
        assert other is not first
        assert len(registry) == 2

    def test_lru_eviction_closes_oldest(self, registry):
        a = registry.warm("small", (9, 9, 9))
        registry.warm("small", (10, 10, 10))
        registry.warm("small", (9, 9, 9))  # refresh a
        registry.warm("small", (12, 12, 12))  # evicts the (10,10,10) twin
        assert len(registry) == 2
        assert registry.warm("small", (9, 9, 9)) is a

    def test_replacing_spec_invalidates_warm_models(self, small_model):
        reg = ModelRegistry(max_models=2)
        reg.register(small_model.model_spec())
        stale = reg.warm("small", (9, 9, 9))
        reg.register(small_model.model_spec(conv_mode="fft"))
        fresh = reg.warm("small", (9, 9, 9))
        assert fresh is not stale
        reg.close()

    def test_metrics_counters_move(self, registry):
        reg = metrics_registry()
        hit = reg.counter("serving.model_cache.hit").value
        miss = reg.counter("serving.model_cache.miss").value
        registry.warm("small", (9, 9, 9))
        registry.warm("small", (9, 9, 9))
        assert reg.counter("serving.model_cache.miss").value == miss + 1
        assert reg.counter("serving.model_cache.hit").value == hit + 1

    def test_model_names(self, registry):
        assert registry.model_names() == ["small"]
        assert registry.fov("small") == (5, 5, 5)

    def test_fov_is_computed_once_per_registration(self, monkeypatch):
        import repro.serving.registry as registry_module

        calls = []
        real_twin = registry_module.dense_twin

        def counting_twin(*args, **kwargs):
            calls.append(args)
            return real_twin(*args, **kwargs)

        monkeypatch.setattr(registry_module, "dense_twin", counting_twin)
        reg = ModelRegistry()
        reg.register(ModelSpec("m", "CTC", builder_kwargs={"width": 1,
                                                            "kernel": 3}))
        assert [reg.fov("m") for _ in range(3)] == [(5, 5, 5)] * 3
        assert len(calls) == 1
        reg.register(ModelSpec("m", "CTC", builder_kwargs={"width": 1,
                                                            "kernel": 5}))
        assert reg.fov("m") == (9, 9, 9)
        with pytest.raises(KeyError, match="unknown model"):
            reg.fov("nope")
