"""Metrics exporter tests (the Chrome-trace exporter's are in
``test_tracing.py``), and one instrumented round end to end."""

import json

from repro.observability import (
    MetricsRegistry,
    Tracer,
    metrics_snapshot,
    render_metrics,
    set_tracer,
    write_chrome_trace,
)


class TestMetricsExport:
    def _registry(self):
        reg = MetricsRegistry()
        reg.counter("queue.pop").inc(7)
        reg.gauge("queue.depth").set(2)
        reg.histogram("queue.wait_seconds", buckets=[1.0]).observe(0.25)
        return reg

    def test_snapshot_of_explicit_registry(self):
        snap = metrics_snapshot(self._registry())
        assert snap["queue.pop"] == 7
        assert snap["queue.depth"] == 2
        assert snap["queue.wait_seconds"]["count"] == 1

    def test_render_contains_all_metrics(self):
        text = render_metrics(registry=self._registry())
        for fragment in ("queue.pop", "queue.depth", "queue.wait_seconds",
                         "count=1"):
            assert fragment in text

    def test_render_histogram_without_observations(self):
        reg = MetricsRegistry()
        reg.histogram("empty", buckets=[1.0])
        text = render_metrics(registry=reg)
        assert "count=0" in text and "max=-" in text

    def test_write_metrics_json(self, tmp_path):
        """A snapshot is plain JSON: dump + load round-trips it."""
        path = tmp_path / "metrics.json"
        with open(path, "w") as fh:
            json.dump(metrics_snapshot(self._registry()), fh)
        with open(path) as fh:
            snap = json.load(fh)
        assert snap["queue.pop"] == 7
        assert snap["queue.wait_seconds"]["buckets"]["le=+inf"] == 0


class TestEndToEnd:
    def test_training_round_fills_registry_and_trace(self, rng, tmp_path):
        """One traced, pooled training round populates every acceptance
        metric family and yields a loadable Chrome trace."""
        import numpy as np

        from repro.core import Network, SGD, Trainer
        from repro.data import PatchProvider, make_cell_volume
        from repro.observability import set_registry

        from repro.memory.pools import reset_global_allocators

        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        tracer = Tracer(enabled=True)
        previous_tracer = set_tracer(tracer)
        reset_global_allocators()  # rebuild pools against the fresh registry
        try:
            from repro.graph import build_layered_network

            graph = build_layered_network("CTC", width=2, kernel=2,
                                          output_nodes=1)
            net = Network(graph, input_shape=(12, 12, 12), seed=0,
                          conv_mode="fft",
                          optimizer=SGD(learning_rate=0.01))
            volume = make_cell_volume((24, 24, 24), seed=1)
            out_shape = net.output_nodes[0].shape
            provider = PatchProvider(volume, (12, 12, 12), out_shape,
                                     seed=2, pooled=True)
            Trainer(net, provider).run(rounds=2)
            net.synchronize()
            snap = fresh.snapshot()
            assert snap["queue.pop"] > 0
            assert snap["fft_cache.hit"] + snap["fft_cache.miss"] > 0
            assert any(name.startswith("pool.alloc") and value > 0
                       for name, value in snap.items()
                       if not isinstance(value, dict))
            assert snap["train.rounds"] == 2
            assert snap["train.seconds_per_update"]["count"] == 2
            path = write_chrome_trace(tracer.spans(),
                                      str(tmp_path / "t.json"))
            with open(path) as fh:
                doc = json.load(fh)
            assert any(e["ph"] == "X" for e in doc["traceEvents"])
            assert np.isfinite(snap["train.loss"])
        finally:
            set_tracer(previous_tracer)
            set_registry(previous)
            reset_global_allocators()
