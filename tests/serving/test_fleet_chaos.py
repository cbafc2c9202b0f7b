"""Chaos tests for the multi-process serving fleet.

Every case here spawns real worker processes, so everything is marked
``slow`` (the tier-1 run skips them; the CI ``fleet-chaos-smoke`` lane
runs them under ``REPRO_CHECK=1``).  The invariant throughout: a fleet
under a seeded FaultPlan — workers killed or hung mid-load — serves
every in-deadline request **bitwise identically** to a clean run, and
``health()`` narrates the restart/quarantine/drain transitions.

Fault grammar notes (see repro.resilience.faults): occurrence counts
are per-process, so a restarted worker re-arms its plan —
``fail:serve_worker@0:1x99`` kills worker 0 *and every replacement*,
which is how the restart-storm breaker is driven deterministically.
Every worker pulls from one queue, so a test aims a fault at one
worker with an ``@<id>`` spec and an in-flight window of 1: a burst of
two requests then puts one on each worker.
"""

import threading
import time

import numpy as np
import pytest

from repro.observability import get_registry as metrics_registry
from repro.serving import (
    DeadlineExceeded,
    FleetServer,
    ServerClosed,
    ServerDraining,
    SupervisorConfig,
    WorkerConfig,
)
from repro.serving.supervisor import (
    STATE_HEALTHY,
    STATE_QUARANTINED,
    Supervisor,
)

pytestmark = pytest.mark.slow

VOLUME_SHAPE = (13, 13, 13)

# Fast-failure-detection knobs for tests: 0.1s heartbeats, 0.6s hang
# watchdog, near-immediate restarts.
FAST = SupervisorConfig(heartbeat_interval=0.1, heartbeat_timeout=0.6,
                        restart_backoff=0.05, restart_backoff_max=0.2,
                        breaker_restarts=5, breaker_window=30.0)


def make_fleet(small_model, num_workers, *, faults=None, config=FAST,
               **kwargs):
    kwargs.setdefault("prewarm_shape", VOLUME_SHAPE)
    kwargs.setdefault("max_queue", 16)
    return FleetServer([small_model.model_spec()],
                       num_workers=num_workers,
                       worker_faults=faults,
                       supervisor_config=config, **kwargs)


@pytest.fixture(scope="module")
def clean_output(small_model):
    """Reference output from a fault-free single-worker fleet."""
    volume = np.random.default_rng(42).standard_normal(VOLUME_SHAPE)
    fleet = make_fleet(small_model, 1)
    fleet.start(ready_timeout=120)
    try:
        return volume, fleet.infer("small", volume, timeout=60.0)
    finally:
        fleet.stop()


class TestCleanFleet:
    def test_matches_single_process_server(self, clean_output, registry):
        # The fleet is a router, not a different numerics path: its
        # output is bitwise what the in-process server computes.
        volume, reference = clean_output
        from repro.serving import InferenceServer
        with InferenceServer(registry, num_workers=1,
                             tile_voxels=1000) as server:
            direct = server.infer("small", volume)
        assert np.array_equal(reference, direct)

    def test_health_names_every_worker(self, small_model):
        fleet = make_fleet(small_model, 2)
        fleet.start(ready_timeout=120)  # returns once ONE worker is up
        try:
            assert fleet.supervisor.wait_ready(timeout=120)
            doc = fleet.health()
            assert doc["status"] == "ok"
            assert doc["role"] == "fleet"
            assert sorted(doc["workers"]) == ["0", "1"]
            for info in doc["workers"].values():
                assert info["state"] == STATE_HEALTHY
                assert info["restarts"] == 0
                assert not info["last_restart_reason"]
        finally:
            fleet.stop()
        assert fleet.health()["status"] == "stopped"

    def test_same_model_burst_uses_every_worker(self, small_model,
                                                clean_output):
        # Each worker wedges its first request for 0.3s (under the
        # 0.6s watchdog), so a two-request burst of one model is in
        # flight on both workers at once instead of queueing on one.
        volume, reference = clean_output
        fleet = make_fleet(small_model, 2, inflight_per_worker=1,
                           faults="hang:serve_worker:1,hang=0.3")
        fleet.start(ready_timeout=120)
        try:
            assert fleet.supervisor.wait_ready(timeout=120)
            pending = [fleet.submit("small", volume, timeout=60.0)
                       for _ in range(2)]
            for request in pending:
                assert np.array_equal(request.result(timeout=60.0),
                                      reference)
            served = {wid: info["served"] for wid, info
                      in fleet.health()["workers"].items()}
            assert served == {"0": 1, "1": 1}
        finally:
            fleet.stop()


    def test_full_window_is_served_without_requeues(self, small_model,
                                                    registry):
        # A worker runs every request its in-flight window holds: a
        # burst of twice the window on one worker is all served, and
        # none bounces back to the router's queue.  The volume is big
        # enough that serving it is slower than dispatching it, so the
        # window fills.
        shape = (32, 32, 32)
        volume = np.random.default_rng(16).standard_normal(shape)
        reference = registry.run("small", volume)
        requeued = metrics_registry().counter("fleet.requests.requeued")
        fleet = make_fleet(small_model, 1, inflight_per_worker=16,
                           max_queue=64, prewarm_shape=shape)
        fleet.start(ready_timeout=120)
        try:
            before = requeued.value
            pending = [fleet.submit("small", volume, timeout=60.0)
                       for _ in range(32)]
            for request in pending:
                assert np.array_equal(request.result(timeout=60.0),
                                      reference)
            assert requeued.value == before
        finally:
            fleet.stop()


class TestKillChaos:
    def test_crashes_mid_load_stay_bitwise_identical(
            self, small_model, clean_output):
        # Kill whichever worker serves the 2nd request, and hang the
        # 4th occurrence for 3s: every request must still complete in
        # deadline with output bitwise equal to the clean run, via
        # requeue-on-death and watchdog reroute.
        volume, reference = clean_output
        fleet = make_fleet(
            small_model, 3,
            faults="fail:serve_worker:2,hang:serve_worker:4,hang=3")
        fleet.start(ready_timeout=120)
        try:
            outputs = [fleet.infer("small", volume, timeout=60.0)
                       for _ in range(8)]
            assert all(np.array_equal(out, reference) for out in outputs)
            doc = fleet.health()
            restarts = sum(w["restarts"]
                           for w in doc["workers"].values())
            assert restarts >= 1
            reasons = [w["last_restart_reason"]
                       for w in doc["workers"].values()
                       if w["restarts"]]
            assert any("crash" in r or "hang" in r for r in reasons)
        finally:
            fleet.stop()

    def test_restart_storm_trips_the_breaker(self, small_model):
        # Worker 0 (and every replacement — occurrence counts are
        # per-process) dies on its first request, a deterministic
        # crash loop: after breaker_restarts deaths inside the window
        # it must be quarantined, not restarted forever.
        victim, other = 0, 1
        config = SupervisorConfig(
            heartbeat_interval=0.1, heartbeat_timeout=0.6,
            restart_backoff=0.05, restart_backoff_max=0.1,
            breaker_restarts=2, breaker_window=30.0)
        fleet = make_fleet(
            small_model, 2, inflight_per_worker=1,
            faults=f"fail:serve_worker@{victim}:1x999",
            config=config)
        fleet.start(ready_timeout=120)
        volume = np.random.default_rng(7).standard_normal(VOLUME_SHAPE)
        try:
            assert fleet.supervisor.wait_ready(timeout=120)
            deadline = time.monotonic() + 60.0
            while time.monotonic() < deadline:
                doc = fleet.health()
                state = doc["workers"][str(victim)]["state"]
                if state == STATE_QUARANTINED:
                    break
                # Traffic is what trips the fault: a two-request burst
                # reaches the victim whenever it is up, and requests
                # crashing it fail over and still succeed.
                pending = [fleet.submit("small", volume, timeout=60.0)
                           for _ in range(2)]
                for request in pending:
                    assert request.result(timeout=60.0).size > 0
                time.sleep(0.2)
            doc = fleet.health()
            assert doc["workers"][str(victim)]["state"] \
                == STATE_QUARANTINED
            # The surviving worker still serves traffic.
            assert fleet.infer("small", volume, timeout=60.0).size > 0
            assert doc["workers"][str(other)]["state"] == STATE_HEALTHY
        finally:
            fleet.stop()


class TestHangChaos:
    def test_watchdog_reroutes_around_a_hung_worker(self, small_model,
                                                    clean_output):
        # Hang worker 0 for far longer than the heartbeat timeout: the
        # watchdog must kill it and its request must fail over to the
        # other worker within its deadline.
        volume, reference = clean_output
        victim = 0
        fleet = make_fleet(
            small_model, 2, inflight_per_worker=1,
            faults=f"hang:serve_worker@{victim}:1,hang=30")
        fleet.start(ready_timeout=120)
        try:
            # Both up, or the burst skips a still-starting victim and
            # the hang never fires.
            assert fleet.supervisor.wait_ready(timeout=120)
            start = time.monotonic()
            pending = [fleet.submit("small", volume, timeout=60.0)
                       for _ in range(2)]
            outputs = [r.result(timeout=60.0) for r in pending]
            elapsed = time.monotonic() - start
            assert all(np.array_equal(out, reference) for out in outputs)
            # Served via failover, not by waiting out the 30s hang.
            assert elapsed < 20.0
            deadline = time.monotonic() + 30.0
            while time.monotonic() < deadline:
                info = fleet.health()["workers"][str(victim)]
                if info["restarts"] >= 1:
                    break
                time.sleep(0.2)
            assert info["restarts"] >= 1
            assert "hang" in info["last_restart_reason"]
        finally:
            fleet.stop()

    def test_hung_worker_holding_a_large_request(self, small_model,
                                                 registry):
        # A 48³ volume pickles to ~880 KB, more than a pipe buffers, so
        # the 2nd request dispatched to the hung worker 0 blocks its
        # dispatch thread in send, holding the worker's send lock.
        # Pings must not wait for that lock: the watchdog still kills
        # worker 0 for the hang, its requests fail over within their
        # deadline, and stop returns promptly.
        shape = (48, 48, 48)
        volume = np.random.default_rng(48).standard_normal(shape)
        reference = registry.run("small", volume)
        victim = 0
        fleet = make_fleet(
            small_model, 2, inflight_per_worker=2, prewarm_shape=shape,
            faults=f"hang:serve_worker@{victim}:1,hang=30")
        fleet.start(ready_timeout=120)
        try:
            assert fleet.supervisor.wait_ready(timeout=120)
            pending = [fleet.submit("small", volume, timeout=20.0)
                       for _ in range(4)]
            for request in pending:
                assert np.array_equal(request.result(timeout=30.0),
                                      reference)
            info = fleet.health()["workers"][str(victim)]
            assert info["restarts"] >= 1
            assert "hang" in info["last_restart_reason"]
        finally:
            start = time.monotonic()
            fleet.stop()
        assert time.monotonic() - start < 15.0

    def test_stop_does_not_wait_behind_a_stuck_send(self, small_model):
        # The same stuck send with the watchdog out of the way: stop
        # must terminate worker 0 rather than queue its stop message
        # behind the volume, and fail both requests.
        shape = (48, 48, 48)
        volume = np.random.default_rng(49).standard_normal(shape)
        config = SupervisorConfig(heartbeat_interval=0.1,
                                  heartbeat_timeout=60.0)
        fleet = make_fleet(small_model, 1, inflight_per_worker=2,
                           faults="hang:serve_worker:1,hang=30",
                           config=config)
        fleet.start(ready_timeout=120)
        record = fleet.supervisor._records[0]
        try:
            pending = [fleet.submit("small", volume, timeout=60.0)
                       for _ in range(2)]
            deadline = time.monotonic() + 10.0
            while not (fleet.total_inflight == 2
                       and record.send_lock.locked()):
                assert time.monotonic() < deadline, "send never stuck"
                time.sleep(0.05)
        finally:
            start = time.monotonic()
            fleet.stop()
        assert time.monotonic() - start < 15.0
        for request in pending:
            with pytest.raises(ServerClosed):
                request.result(timeout=5.0)
    def test_zero_accepted_requests_dropped(self, small_model,
                                            clean_output):
        # Pile up requests, then drain: every accepted request must
        # resolve with the right bits; post-drain submissions are
        # refused with ServerDraining.
        volume, reference = clean_output
        fleet = make_fleet(small_model, 2, inflight_per_worker=2)
        fleet.start(ready_timeout=120)
        stopped = False
        try:
            accepted = [fleet.submit("small", volume, timeout=60.0)
                        for _ in range(6)]
            fleet.begin_drain()
            assert fleet.health()["status"] == "draining"
            with pytest.raises(ServerDraining):
                fleet.submit("small", volume)
            assert fleet.wait_drained(timeout=60.0)
            for request in accepted:
                assert np.array_equal(request.result(timeout=60.0),
                                      reference)
            fleet.stop()
            stopped = True
        finally:
            if not stopped:
                fleet.stop()

    def test_drain_with_a_mid_flight_crash(self, small_model,
                                           clean_output):
        # A worker dying while the fleet drains must not drop the
        # requests it held — they requeue onto the survivor.  Both
        # workers take two of the burst at once (window 2), so worker
        # 0 receives its fatal 2nd request straight away; the survivor
        # has the rest served long before a replacement could come up
        # and re-arm the fault.
        volume, reference = clean_output
        failover = metrics_registry().counter("fleet.requests.failover")
        before = failover.value
        fleet = make_fleet(small_model, 2,
                           faults="fail:serve_worker@0:2",
                           inflight_per_worker=2)
        fleet.start(ready_timeout=120)
        try:
            assert fleet.supervisor.wait_ready(timeout=120)
            accepted = [fleet.submit("small", volume, timeout=60.0)
                        for _ in range(6)]
            fleet.begin_drain()
            assert fleet.wait_drained(timeout=60.0)
            for request in accepted:
                assert np.array_equal(request.result(timeout=60.0),
                                      reference)
            assert failover.value > before
        finally:
            fleet.stop()


class TestDeadlines:
    def test_expired_request_fails_fast_not_served(self, small_model):
        # A deadline already gone when the dispatcher picks the
        # request up: the dispatch check (or the janitor) must fail it
        # with DeadlineExceeded rather than serving a dead request.
        fleet = make_fleet(small_model, 1)
        fleet.start(ready_timeout=120)
        try:
            volume = np.random.default_rng(3).standard_normal(
                VOLUME_SHAPE)
            with pytest.raises(DeadlineExceeded):
                fleet.infer("small", volume, timeout=0.0)
        finally:
            fleet.stop()


class TestSupervisorUnit:
    def test_status_and_stop_are_clean(self, small_model):
        config = WorkerConfig(specs=(small_model.model_spec(),),
                              prewarm_shape=VOLUME_SHAPE)
        supervisor = Supervisor(config, num_workers=2,
                                config=FAST)
        supervisor.start()
        try:
            assert supervisor.wait_ready(timeout=120)
            status = supervisor.status()
            assert sorted(status) == ["0", "1"]
            assert all(w["state"] == STATE_HEALTHY
                       for w in status.values())
            assert all(w["pid"] for w in status.values())
        finally:
            supervisor.stop()
        assert all(w["state"] == "stopped"
                   for w in supervisor.status().values())

    def test_callbacks_fire_without_holding_locks(self, small_model):
        # A callback that immediately calls back into the supervisor
        # must not deadlock — the contract is that callbacks run
        # lock-free.
        seen = []
        ready = threading.Event()

        def on_up(worker_id):
            seen.append(supervisor.is_healthy(worker_id))
            ready.set()

        config = WorkerConfig(specs=(small_model.model_spec(),),
                              prewarm_shape=VOLUME_SHAPE)
        supervisor = Supervisor(config, num_workers=1, config=FAST,
                                on_worker_up=on_up)
        supervisor.start()
        try:
            assert ready.wait(timeout=120)
            assert seen == [True]
        finally:
            supervisor.stop()
