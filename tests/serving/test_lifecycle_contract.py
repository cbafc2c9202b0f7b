"""One contract suite for the shared request lifecycle.

Every case runs against both front ends built on
:class:`repro.serving.lifecycle.RequestLifecycle`: the in-process
``InferenceServer`` and the ``FleetServer`` router.  The fleet runs
over an in-process stand-in for its ``Supervisor`` (one "worker" that
serves from the test's registry), so the router's admission, drain,
deadline and stop paths are tier-1 — the real multi-process fleet is
exercised by ``test_fleet_chaos.py`` in the slow lane.
"""

import threading
import time

import numpy as np
import pytest

from repro.observability import get_registry as metrics_registry
from repro.serving import (
    PRIORITY_HIGH,
    PRIORITY_LOW,
    DeadlineExceeded,
    FleetServer,
    InferenceServer,
    ServerClosed,
    ServerDraining,
    ServerOverloaded,
    admission_limit,
)
from repro.serving.supervisor import run_request


class InProcessSupervisor:
    """The slice of ``Supervisor`` the router calls, minus processes:
    worker 0 answers ``send`` synchronously from *registry*, the way a
    fleet worker does."""

    def __init__(self, fleet, registry):
        self.fleet = fleet
        self.registry = registry
        self.up = False
        # Like the real supervisor's monitor-thread join: stop() waits
        # for a reply in progress, so the router never closes the pool
        # under a result that is still being copied out.
        self._replying = threading.Lock()

    def start(self):
        pass

    def stop(self):
        with self._replying:
            pass

    def wait_ready(self, timeout=None, min_workers=1):
        return True

    def healthy_ids(self):
        return [0] if self.up else []

    def status(self):
        return {"0": {"state": "healthy" if self.up else "starting",
                      "restarts": 0}}

    def worker_up(self):
        self.up = True
        self.fleet._on_worker_up(0)

    def send(self, wid, message):
        timeout = message[4]
        deadline = (None if timeout is None
                    else time.monotonic() + timeout)
        with self._replying:
            self.fleet._on_message(wid, run_request(
                self.registry, 1000, message, deadline))
        return True


class Harness:
    """A started server plus a way to hold accepted requests queued."""

    def __init__(self, kind, registry, small_model, max_queue):
        self.kind = kind
        if kind == "pipeline":
            self.server = InferenceServer(registry, num_workers=2,
                                          max_queue=max_queue,
                                          tile_voxels=1000).start()
            self.server.gate.clear()
            time.sleep(0.05)  # let workers park behind the gate
        else:
            self.server = FleetServer([small_model.model_spec()],
                                      num_workers=1, max_queue=max_queue)
            self.supervisor = InProcessSupervisor(self.server, registry)
            self.server.supervisor = self.supervisor
            # No worker is up yet: accepted requests park as orphans.
            self.server.start()

    def release(self):
        """Let queued requests run."""
        if self.kind == "pipeline":
            self.server.gate.set()
        else:
            self.supervisor.worker_up()

    def counter(self, name):
        prefix = "serving" if self.kind == "pipeline" else "fleet"
        return metrics_registry().counter(f"{prefix}.{name}")


@pytest.fixture(params=["pipeline", "fleet"])
def server_kind(request):
    return request.param


@pytest.fixture
def harness(server_kind, registry, small_model):
    built = []

    def build(max_queue=4):
        built.append(Harness(server_kind, registry, small_model,
                             max_queue))
        return built[-1]

    yield build
    for h in built:
        h.server.stop()


class TestValidation:
    def test_too_thin_volume_fails_cleanly(self, harness):
        # A 2D array promotes to (1, 20, 20), which cannot cover this
        # model's (5, 5, 5) fov: refused in the caller's thread, before
        # it can cost a queue slot or count as accepted.
        accepted = metrics_registry().counter("serving.requests.accepted")
        before = accepted.value
        server = harness().server
        vol = np.random.default_rng(3).standard_normal((20, 20))
        with pytest.raises(ValueError, match="smaller than model "
                           "'small''s field of view"):
            server.submit("small", vol)
        assert server.queue_depth == 0
        assert accepted.value == before

    def test_unknown_model_fails_before_queueing(self, harness, volume):
        server = harness().server
        with pytest.raises(KeyError, match="unknown model"):
            server.submit("nope", volume)
        assert server.queue_depth == 0

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_volume_refused_before_queueing(self, harness,
                                                       volume, bad):
        # One NaN voxel used to fill a whole FFT output tile with NaN
        # but a single direct voxel: the reply depended on the backend.
        accepted = metrics_registry().counter("serving.requests.accepted")
        before = accepted.value
        server = harness().server
        poisoned = volume.copy()
        poisoned[3, 4, 5] = bad
        with pytest.raises(ValueError, match="non-finite voxels"):
            server.submit("small", poisoned)
        assert server.queue_depth == 0
        assert accepted.value == before

    def test_complex_volume_refused_before_queueing(self, harness, volume):
        # A float64 cast drops the imaginary part with only a
        # ComplexWarning: the real part alone would be served.
        accepted = metrics_registry().counter("serving.requests.accepted")
        before = accepted.value
        server = harness().server
        with pytest.raises(ValueError, match="complex-valued"):
            server.submit("small", volume + 1j * volume)
        assert server.queue_depth == 0
        assert accepted.value == before

    def test_bad_rank_and_priority_rejected(self, harness, volume):
        server = harness().server
        with pytest.raises(ValueError, match="2D or 3D"):
            server.submit("small", np.zeros((2, 2, 2, 2)))
        with pytest.raises(ValueError, match="priority"):
            server.submit("small", volume, priority=42)


class TestAdmission:
    def test_full_queue_rejects_with_retry_after(self, harness, volume):
        rejected = metrics_registry().counter("serving.requests.rejected")
        before = rejected.value
        h = harness(max_queue=2)
        accepted = [h.server.submit("small", volume) for _ in range(2)]
        with pytest.raises(ServerOverloaded) as info:
            h.server.submit("small", volume)
        assert info.value.retry_after > 0
        assert rejected.value == before + 1
        h.release()
        for request in accepted:
            assert request.result(timeout=30).size > 0

    def test_tiers_shed_at_their_admission_limit(self, harness, volume):
        h = harness(max_queue=4)
        shed = h.counter("requests.shed")
        before = shed.value
        low = admission_limit(PRIORITY_LOW, 4)
        accepted = [h.server.submit("small", volume,
                                    priority=PRIORITY_LOW)
                    for _ in range(low)]
        # The queue has spare capacity, but the low tier is full.
        with pytest.raises(ServerOverloaded):
            h.server.submit("small", volume, priority=PRIORITY_LOW)
        assert shed.value == before + 1
        # Normal traffic still gets in, up to its own limit ...
        while h.server.queue_depth < 4:
            accepted.append(h.server.submit("small", volume))
        with pytest.raises(ServerOverloaded):
            h.server.submit("small", volume)
        # ... and at capacity even the high tier is refused — as plain
        # overload, not as shedding.
        with pytest.raises(ServerOverloaded):
            h.server.submit("small", volume, priority=PRIORITY_HIGH)
        assert shed.value == before + 1
        h.release()
        for request in accepted:
            assert request.result(timeout=30).size > 0


class TestDrain:
    def test_drain_finishes_accepted_work_then_refuses(self, harness,
                                                       volume):
        h = harness()
        pending = h.server.submit("small", volume)
        h.server.begin_drain()
        assert h.server.health()["status"] == "draining"
        with pytest.raises(ServerDraining) as info:
            h.server.submit("small", volume)
        assert info.value.retry_after > 0
        # Draining refusals are ServerClosed (clients must not retry
        # against a goner), not ServerOverloaded.
        assert isinstance(info.value, ServerClosed)
        assert not isinstance(info.value, ServerOverloaded)
        assert not h.server.wait_drained(timeout=0.05)
        h.release()
        assert h.server.drain(timeout=30)
        assert pending.result(timeout=30).size > 0
        assert h.server.health()["status"] == "stopped"
        with pytest.raises(ServerClosed):
            h.server.submit("small", volume)


class TestStop:
    def test_stop_fails_pending_requests(self, harness, volume):
        h = harness()
        pending = [h.server.submit("small", volume) for _ in range(3)]
        h.server.stop()
        for request in pending:
            with pytest.raises(ServerClosed):
                request.result(timeout=5)
        with pytest.raises(ServerClosed):
            h.server.submit("small", volume)
        h.server.stop()  # idempotent


class TestDeadlines:
    def test_deadline_missed_in_queue(self, harness, volume):
        missed = metrics_registry().counter(
            "serving.requests.deadline_missed")
        before = missed.value
        h = harness()
        request = h.server.submit("small", volume, timeout=0.01)
        time.sleep(0.1)  # deadline passes while queued
        h.release()
        with pytest.raises(DeadlineExceeded):
            request.result(timeout=30)
        assert missed.value == before + 1

    def test_generous_deadline_met(self, harness, volume):
        h = harness()
        request = h.server.submit("small", volume, timeout=60)
        h.release()
        assert request.result(timeout=30).size > 0


class TestHealth:
    def test_admission_block_has_one_shape(self, registry, small_model):
        docs = {}
        for kind in ("pipeline", "fleet"):
            h = Harness(kind, registry, small_model, max_queue=4)
            try:
                h.release()
                docs[kind] = h.server.health()
            finally:
                h.server.stop()
        for doc in docs.values():
            assert doc["status"] == "ok"
            assert doc["models"] == ["small"]
            assert doc["queue_depth"] == 0
            assert doc["max_queue"] == 4
        assert docs["pipeline"]["role"] == "server"
        assert docs["fleet"]["role"] == "fleet"
        assert docs["pipeline"]["admission"] == docs["fleet"]["admission"]
        assert docs["pipeline"]["admission"] == {
            "depth": 0, "capacity": 4,
            "limits": {"0": 4, "1": 4, "2": 2}}
