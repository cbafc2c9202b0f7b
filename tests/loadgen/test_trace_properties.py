"""Hypothesis properties of the workload-trace generator (ISSUE
satellite: same seed => identical, nondecreasing arrivals, mean rate
within tolerance, mix conservation)."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.loadgen import TraceConfig, generate_trace
from repro.serving.lifecycle import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
)

configs = st.builds(
    TraceConfig,
    seed=st.integers(min_value=0, max_value=2**31),
    duration=st.floats(min_value=5.0, max_value=120.0),
    base_rate=st.floats(min_value=0.5, max_value=20.0),
    diurnal_amplitude=st.floats(min_value=0.0, max_value=0.9),
    diurnal_period=st.floats(min_value=10.0, max_value=1000.0),
    size_alpha=st.floats(min_value=0.5, max_value=4.0),
)


@settings(max_examples=25, deadline=None)
@given(configs)
def test_same_seed_yields_identical_trace(config):
    assert generate_trace(config) == generate_trace(config)


@settings(max_examples=25, deadline=None)
@given(configs)
def test_arrivals_strictly_increasing_within_duration(config):
    trace = generate_trace(config)
    previous = -1.0
    for request in trace.requests:
        assert previous < request.t < config.duration
        previous = request.t


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31),
       st.floats(min_value=2.0, max_value=10.0))
def test_mean_rate_tracks_configured_rate(seed, base_rate):
    # Steady trace, long enough that the Poisson count concentrates:
    # n ~ Poisson(rate * T), stddev/mean = 1/sqrt(n).  With
    # n >= 2 * 200 = 400 expected, 5 sigma is 25%, so a 35% band
    # (plus a small absolute floor) is comfortably flake-free.
    config = TraceConfig(seed=seed, duration=200.0,
                         base_rate=base_rate)
    trace = generate_trace(config)
    expected = config.expected_requests()
    sigma = math.sqrt(expected)
    assert abs(len(trace) - expected) < 5.0 * sigma + 5.0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=2**31))
def test_mix_proportions_conserved(seed):
    # Smooth WRR guarantees the deviation bound over every prefix,
    # not just in expectation: |count - n * share| < 1.
    model_mix = {"default": 3.0, "alt": 1.0}
    priority_mix = {PRIORITY_HIGH: 1.0, PRIORITY_NORMAL: 2.0,
                    PRIORITY_LOW: 1.0}
    config = TraceConfig(seed=seed, duration=40.0, base_rate=4.0,
                         model_mix=model_mix,
                         priority_mix=priority_mix)
    trace = generate_trace(config)
    n = len(trace)
    for mix, key in ((model_mix, lambda r: r.model),
                     (priority_mix, lambda r: r.priority)):
        total = sum(mix.values())
        for value, weight in mix.items():
            count = sum(1 for r in trace.requests
                        if key(r) == value)
            assert abs(count - n * weight / total) < 1.0


@settings(max_examples=25, deadline=None)
@given(configs, st.floats(min_value=1.5, max_value=100.0))
def test_scaled_preserves_bodies_and_count(config, multiplier):
    trace = generate_trace(config)
    fast = trace.scaled(multiplier)
    assert len(fast) == len(trace)
    assert [(r.model, r.shape, r.priority) for r in fast.requests] \
        == [(r.model, r.shape, r.priority) for r in trace.requests]


@settings(max_examples=25, deadline=None)
@given(configs)
def test_sizes_within_configured_bounds(config):
    trace = generate_trace(config)
    for request in trace.requests:
        for edge in request.shape:
            assert config.size_min <= edge <= config.size_max
