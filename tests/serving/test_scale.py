"""Live fleet scaling tests: ``FleetServer.scale_to`` up and down,
the supervisor's add/retire surface, and the closed-loop
``FleetAutoscaler`` driving a real fleet.

Everything spawns worker processes, so it is all marked ``slow``
(tier 1 skips it; the CI ``loadtest-smoke`` lane covers the same
path end-to-end through the CLI).
"""

import time

import numpy as np
import pytest

from repro.loadgen import (
    FleetAutoscaler,
    HysteresisPolicy,
    TraceConfig,
    generate_trace,
    replay_trace,
)
from repro.serving import FleetServer, SupervisorConfig
from repro.serving.supervisor import STATE_RETIRED

pytestmark = pytest.mark.slow

VOLUME_SHAPE = (13, 13, 13)

FAST = SupervisorConfig(heartbeat_interval=0.1, heartbeat_timeout=5.0,
                        restart_backoff=0.05, restart_backoff_max=0.2,
                        breaker_restarts=5, breaker_window=30.0)


def make_fleet(small_model, num_workers, **kwargs):
    kwargs.setdefault("prewarm_shape", VOLUME_SHAPE)
    kwargs.setdefault("max_queue", 16)
    return FleetServer([small_model.model_spec()],
                       num_workers=num_workers,
                       supervisor_config=FAST, **kwargs)


def wait_for_healthy(fleet, count, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        workers = fleet.health()["workers"]
        active = set(fleet.active_worker_ids())
        up = sum(1 for wid, info in workers.items()
                 if info["state"] == "healthy"
                 and int(wid) in active)
        if up >= count:
            return
        time.sleep(0.1)
    raise AssertionError(
        f"fleet never reached {count} healthy active workers: "
        f"{fleet.health()}")


class TestScaleTo:
    def test_scale_up_then_down_keeps_serving(self, small_model):
        volume = np.random.default_rng(7).standard_normal(VOLUME_SHAPE)
        fleet = make_fleet(small_model, 1)
        fleet.start(ready_timeout=120)
        try:
            reference = fleet.infer("small", volume, timeout=60.0)
            assert fleet.active_workers == 1

            active = fleet.scale_to(2, ready_timeout=120)
            assert active == [0, 1]
            assert fleet.active_workers == 2
            wait_for_healthy(fleet, 2)
            out = fleet.infer("small", volume, timeout=60.0)
            assert np.array_equal(out, reference)

            fleet.scale_to(1)
            assert fleet.active_workers == 1
            out = fleet.infer("small", volume, timeout=60.0)
            assert np.array_equal(out, reference)
        finally:
            fleet.stop()

    def test_retired_worker_is_not_restarted(self, small_model):
        fleet = make_fleet(small_model, 2)
        fleet.start(ready_timeout=120)
        try:
            victim = max(fleet.active_worker_ids())
            fleet.scale_to(1)
            # Give the supervisor time to misread the retirement as a
            # death; a restart would flip the state back to healthy.
            time.sleep(1.0)
            states = {int(wid): info["state"] for wid, info
                      in fleet.health()["workers"].items()}
            assert states[victim] == STATE_RETIRED
            assert victim not in fleet.active_worker_ids()
        finally:
            fleet.stop()

    def test_scale_to_zero_rejected(self, small_model):
        fleet = make_fleet(small_model, 1)
        fleet.start(ready_timeout=120)
        try:
            with pytest.raises(ValueError):
                fleet.scale_to(0)
        finally:
            fleet.stop()


class TestFleetAutoscaler:
    def test_closed_loop_scales_a_real_fleet(self, small_model):
        # Calm trace + min_workers=1 forces a live scale-down; the
        # decisions log proves the loop observed and acted.
        trace = generate_trace(TraceConfig(
            seed=11, duration=6.0, base_rate=2.0, size_min=12,
            size_max=12, deadline=30.0,
            model_mix={"small": 1.0}))
        fleet = make_fleet(small_model, 2)
        fleet.start(ready_timeout=120)
        policy = HysteresisPolicy(min_workers=1, max_workers=3,
                                  cooldown_ticks=1)
        try:
            with FleetAutoscaler(fleet, policy, interval=0.3) as auto:
                result = replay_trace(trace, fleet, speed=3.0)
            assert result.served == len(trace)
            decisions = auto.decisions()
            assert decisions, "autoscaler never ticked"
            assert all(policy.min_workers <= d.target
                       <= policy.max_workers for d in decisions)
            assert fleet.active_workers == 1
            assert auto.worker_seconds > 0.0
        finally:
            fleet.stop()
