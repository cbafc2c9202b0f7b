"""Trace generator unit tests (the example-based half; the
hypothesis properties live in test_trace_properties.py)."""

import json

import pytest

from repro.loadgen import (
    SCENARIOS,
    FlashCrowd,
    TraceConfig,
    WorkloadError,
    generate_trace,
    load_trace,
    scenario_config,
    write_trace,
)
from repro.tensor.fourier import next_fast_len


class TestGeneration:
    def test_same_seed_identical_trace(self):
        config = scenario_config("diurnal", seed=5, duration=40.0,
                                 base_rate=2.0)
        assert generate_trace(config) == generate_trace(config)

    def test_mix_insertion_order_is_immaterial(self):
        # Regression: the smooth-WRR total was summed in dict
        # insertion order, so two configs with the same weights but
        # different literal order could (float reassociation) diverge.
        a = generate_trace(TraceConfig(
            seed=9, duration=30.0, base_rate=3.0,
            model_mix={"default": 3.0, "alt": 1.0},
            priority_mix={1: 1.0, 2: 2.0, 3: 1.0}))
        b = generate_trace(TraceConfig(
            seed=9, duration=30.0, base_rate=3.0,
            model_mix={"alt": 1.0, "default": 3.0},
            priority_mix={3: 1.0, 1: 1.0, 2: 2.0}))
        assert a == b

    def test_different_seeds_differ(self):
        a = generate_trace(TraceConfig(seed=1, duration=50.0,
                                       base_rate=2.0))
        b = generate_trace(TraceConfig(seed=2, duration=50.0,
                                       base_rate=2.0))
        assert a.requests != b.requests

    def test_arrivals_strictly_increasing(self):
        trace = generate_trace(TraceConfig(seed=3, duration=60.0,
                                           base_rate=4.0))
        times = [r.t for r in trace.requests]
        assert all(b > a for a, b in zip(times, times[1:]))
        assert all(0.0 <= t < 60.0 for t in times)

    def test_sizes_are_11_smooth_and_bounded(self):
        """Edges snap to ``next_fast_len``'s (11-smooth) lengths."""
        config = TraceConfig(seed=4, duration=60.0, base_rate=3.0,
                             size_min=12, size_max=40)
        trace = generate_trace(config)
        for request in trace.requests:
            edge = request.shape[0]
            assert request.shape == (edge, edge, edge)
            assert 12 <= edge <= 40
            assert next_fast_len(edge) == edge

    def test_flash_crowd_raises_local_rate(self):
        crowd = FlashCrowd(start=20.0, duration=10.0, multiplier=8.0)
        config = TraceConfig(seed=6, duration=60.0, base_rate=2.0,
                             flash_crowds=(crowd,))
        trace = generate_trace(config)
        inside = sum(1 for r in trace.requests
                     if 20.0 <= r.t < 30.0)
        outside = len(trace.requests) - inside
        # 10s at 16 req/s inside vs 50s at 2 req/s outside.
        assert inside > outside

    def test_scaled_compresses_time(self):
        trace = generate_trace(TraceConfig(seed=7, duration=30.0,
                                           base_rate=2.0))
        fast = trace.scaled(10.0)
        assert len(fast) == len(trace)
        assert fast.config.duration == pytest.approx(3.0)
        assert fast.mean_rate == pytest.approx(trace.mean_rate * 10)
        for a, b in zip(trace.requests, fast.requests):
            assert b.t == pytest.approx(a.t / 10.0)
            assert b.shape == a.shape
            assert b.priority == a.priority

    def test_scenarios_all_generate(self):
        for scenario in SCENARIOS:
            config = scenario_config(scenario, seed=1, duration=20.0,
                                     base_rate=2.0)
            trace = generate_trace(config)
            assert len(trace) > 0

    def test_unknown_scenario_rejected(self):
        with pytest.raises(WorkloadError, match="unknown scenario"):
            scenario_config("tsunami")


class TestValidation:
    def test_bad_config_fields(self):
        with pytest.raises(WorkloadError):
            TraceConfig(duration=0.0)
        with pytest.raises(WorkloadError):
            TraceConfig(base_rate=-1.0)
        with pytest.raises(WorkloadError):
            TraceConfig(diurnal_amplitude=1.5)
        with pytest.raises(WorkloadError):
            TraceConfig(size_min=10, size_max=5)
        with pytest.raises(WorkloadError):
            TraceConfig(model_mix={})
        with pytest.raises(WorkloadError):
            TraceConfig(priority_mix={0: -1.0})


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        config = scenario_config("multi-model", seed=9,
                                 duration=25.0, base_rate=3.0)
        trace = generate_trace(config)
        path = str(tmp_path / "trace.jsonl")
        write_trace(path, trace)
        loaded = load_trace(path)
        assert loaded.config == trace.config
        assert loaded.requests == trace.requests

    def test_header_schema_checked(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"schema": "nope"}) + "\n")
        with pytest.raises(WorkloadError, match="schema"):
            load_trace(str(path))

    def test_request_lines_validated(self, tmp_path):
        config = TraceConfig(seed=1, duration=5.0, base_rate=1.0)
        trace = generate_trace(config)
        path = str(tmp_path / "t.jsonl")
        write_trace(path, trace)
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"t": -1.0, "model": "m",
                                 "shape": [8, 8, 8], "priority": 0,
                                 "deadline": None}) + "\n")
        with pytest.raises(WorkloadError, match="t must be"):
            load_trace(path)

    def test_declared_count_checked(self, tmp_path):
        trace = generate_trace(TraceConfig(seed=2, duration=10.0,
                                           base_rate=2.0))
        path = str(tmp_path / "t.jsonl")
        write_trace(path, trace)
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
        with open(path, "w", encoding="utf-8") as fh:
            fh.writelines(lines[:-1])  # drop one request
        with pytest.raises(WorkloadError, match="declares"):
            load_trace(path)

    def test_write_is_deterministic(self, tmp_path):
        trace = generate_trace(TraceConfig(seed=3, duration=15.0,
                                           base_rate=2.0))
        a = str(tmp_path / "a.jsonl")
        b = str(tmp_path / "b.jsonl")
        write_trace(a, trace)
        write_trace(b, trace)
        assert open(a, "rb").read() == open(b, "rb").read()
