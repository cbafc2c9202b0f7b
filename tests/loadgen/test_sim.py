"""Serving-simulator tests: conservation, overload behaviour,
determinism, and the autoscaler's effect on served fraction."""

import pytest

from repro.loadgen import (
    HysteresisPolicy,
    ServiceModel,
    SimConfig,
    TraceConfig,
    generate_trace,
    simulate_serving,
)
from repro.loadgen.traces import Trace, TraceRequest
from repro.serving.lifecycle import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
)


def _trace(seed=0, duration=30.0, base_rate=2.0, deadline=30.0,
           **kwargs):
    return generate_trace(TraceConfig(
        seed=seed, duration=duration, base_rate=base_rate,
        size_min=12, size_max=12, deadline=deadline, **kwargs))


class TestConservation:
    def test_every_request_gets_an_outcome(self):
        trace = _trace(seed=1)
        result = simulate_serving(trace, SimConfig(workers=2))
        assert len(result.outcomes) == len(trace)
        statuses = {o.status for o in result.outcomes}
        assert statuses <= {"served", "shed", "deadline"}

    def test_light_load_all_served(self):
        # 2 req/s against workers that clear ~20 req/s each.
        trace = _trace(seed=2)
        config = SimConfig(workers=2, service=ServiceModel(
            seconds_per_voxel=0.0, overhead_seconds=0.01))
        result = simulate_serving(trace, config)
        assert result.served == len(trace)
        for outcome in result.outcomes:
            # Tolerate float cancellation in finish - arrival.
            assert outcome.latency >= 0.01 - 1e-9
            assert outcome.wait >= -1e-9

    def test_determinism(self):
        trace = _trace(seed=3, base_rate=5.0)
        config = SimConfig(workers=2)
        policy_a = HysteresisPolicy(min_workers=1, max_workers=4)
        policy_b = HysteresisPolicy(min_workers=1, max_workers=4)
        a = simulate_serving(trace, config, policy_a)
        b = simulate_serving(trace, config, policy_b)
        assert a == b


class TestDispatchOrder:
    def test_queue_is_fifo_across_priorities(self):
        # Both live front ends pop the oldest request whatever its
        # tier: a low-priority request that arrived while the only
        # worker was busy goes before a later high-priority one.
        requests = tuple(
            TraceRequest(t=t, model="small", shape=(12, 12, 12),
                         priority=priority, deadline=None)
            for t, priority in ((0.0, PRIORITY_NORMAL),
                                (0.1, PRIORITY_LOW),
                                (0.2, PRIORITY_HIGH)))
        trace = Trace(config=TraceConfig(duration=1.0),
                      requests=requests)
        config = SimConfig(workers=1, service=ServiceModel(
            seconds_per_voxel=0.0, overhead_seconds=1.0))
        result = simulate_serving(trace, config)
        finished = sorted(result.outcomes,
                          key=lambda o: o.arrival + o.latency)
        assert [o.index for o in finished] == [0, 1, 2]
        low, high = result.outcomes[1], result.outcomes[2]
        assert low.wait == pytest.approx(0.9)
        assert high.wait == pytest.approx(1.8)


class TestOverload:
    def test_saturated_fleet_sheds(self):
        # One worker needing 1s per request against 10 req/s with a
        # 32-deep queue must shed once the queue fills.
        trace = _trace(seed=4, base_rate=10.0, deadline=None)
        config = SimConfig(workers=1, max_queue=8, service=ServiceModel(
            seconds_per_voxel=0.0, overhead_seconds=1.0))
        result = simulate_serving(trace, config)
        shed = sum(1 for o in result.outcomes if o.status == "shed")
        assert shed > 0
        assert result.served + shed == len(trace)

    def test_tight_deadline_misses(self):
        trace = _trace(seed=5, base_rate=10.0, deadline=0.5)
        config = SimConfig(workers=1, service=ServiceModel(
            seconds_per_voxel=0.0, overhead_seconds=1.0))
        result = simulate_serving(trace, config)
        missed = sum(1 for o in result.outcomes
                     if o.status == "deadline")
        assert missed > 0

    def test_autoscaler_improves_served_fraction(self):
        # Overloaded at 2 fixed workers; the autoscaler may grow to 8.
        trace = _trace(seed=6, base_rate=20.0, duration=20.0,
                       deadline=2.0)
        service = ServiceModel(seconds_per_voxel=0.0,
                               overhead_seconds=0.3)
        config = SimConfig(workers=2, service=service,
                           control_interval=0.25)
        fixed = simulate_serving(trace, config)
        scaled = simulate_serving(
            trace, config,
            HysteresisPolicy(min_workers=1, max_workers=8,
                             cooldown_ticks=0))
        assert scaled.served > fixed.served
        assert scaled.final_workers > 2
        assert len(scaled.decisions) > 0

    def test_worker_seconds_track_capacity(self):
        trace = _trace(seed=7, duration=10.0)
        result = simulate_serving(trace, SimConfig(workers=3))
        # Fixed fleet: exactly capacity x simulated span.
        assert result.worker_seconds == pytest.approx(
            3.0 * result.end_time)


class TestServiceModel:
    def test_service_seconds(self):
        model = ServiceModel(seconds_per_voxel=1e-6,
                             overhead_seconds=0.5)
        assert model.service_seconds((10, 10, 10)) == pytest.approx(
            0.5 + 1e-3)

    def test_from_cost_model(self):
        doc = {"entries": [
            {"op": "fwd", "image_shape": [10, 10, 10],
             "count": 4, "seconds": 8.0},
            {"op": "bwd", "image_shape": [10, 10, 10],
             "count": 4, "seconds": 99.0},
        ]}
        model = ServiceModel.from_cost_model(doc)
        assert model.seconds_per_voxel == pytest.approx(
            8.0 / (4 * 1000))

    def test_from_cost_model_sums_edges_over_input_voxels(self):
        # Two conv edges in series: a request pays both means, per
        # voxel of the network input (the larger image), not their
        # pooled seconds over their pooled voxels.
        doc = {"entries": [
            {"op": "fwd", "edge": "conv_L1_0_0",
             "image_shape": [10, 10, 10], "count": 4, "seconds": 8.0},
            {"op": "fwd", "edge": "conv_L3_0_0",
             "image_shape": [8, 8, 8], "count": 2, "seconds": 3.0},
        ]}
        model = ServiceModel.from_cost_model(doc)
        assert model.seconds_per_voxel == pytest.approx(
            (8.0 / 4 + 3.0 / 2) / 1000)

    def test_from_cost_model_charges_non_conv_edges_too(self):
        # A transfer entry has no shape (and no FLOPs): its forward
        # seconds are still part of every request, the voxel count
        # still comes from the conv entries.
        doc = {"entries": [
            {"op": "fwd", "edge": "conv_L1_0_0", "backend": "fft",
             "image_shape": [10, 10, 10], "count": 4, "seconds": 8.0},
            {"op": "fwd", "edge": "xfer_L2_0", "backend": "transfer",
             "image_shape": None, "kernel_shape": None, "flops": 0.0,
             "count": 4, "seconds": 2.0},
        ]}
        model = ServiceModel.from_cost_model(doc)
        assert model.seconds_per_voxel == pytest.approx(
            (8.0 / 4 + 2.0 / 4) / 1000)
        shapeless = {"entries": doc["entries"][1:]}
        assert ServiceModel.from_cost_model(shapeless) == ServiceModel()

    def test_from_cost_model_falls_back(self):
        model = ServiceModel.from_cost_model({"entries": []})
        assert model == ServiceModel()

    def test_config_validation(self):
        with pytest.raises(ValueError, match="workers"):
            SimConfig(workers=0)
        with pytest.raises(ValueError, match="max_queue"):
            SimConfig(max_queue=0)
        with pytest.raises(ValueError, match="control_interval"):
            SimConfig(control_interval=0.0)
