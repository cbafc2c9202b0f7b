"""Fleet building blocks that run without spawning processes.

Dispatch and scaling over an in-process stand-in for the supervisor,
the admission-limit arithmetic and deadline-capped client retries.
Admission, drain and the health document live in
``test_lifecycle_contract.py`` (both front ends); everything that
needs a real multi-process fleet lives in ``test_fleet_chaos.py``
(slow lane).
"""

import multiprocessing
import threading
import time

import numpy as np
import pytest

from repro.serving import (
    ADMISSION_FRACTIONS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    DeadlineExceeded,
    FleetServer,
    InferenceServer,
    ServerOverloaded,
    ServingClient,
    admission_limit,
)
from repro.serving.client import _remaining_timeout, _retry_sleep
from repro.serving.supervisor import _send_control, run_request


class HeldSupervisor:
    """The slice of ``Supervisor`` the router calls, minus processes.

    Every worker is healthy as soon as it is spawned.  ``send`` holds
    each request on its own thread until the test sets ``release``,
    then answers it from *registry* the way a fleet worker does, so
    requests stay in flight for as long as the test needs.
    """

    def __init__(self, fleet, registry, num_workers):
        self.fleet = fleet
        self.registry = registry
        self.workers = {wid: "starting" for wid in range(num_workers)}
        self.release = threading.Event()
        #: Workers whose pipe is broken: ``send`` to them fails.
        self.dead = set()
        self._replies = []

    def start(self):
        for wid in list(self.workers):
            self.spawn_worker(wid)

    def stop(self):
        self.release.set()
        for thread in self._replies:
            thread.join(timeout=30)

    def wait_ready(self, timeout=None, min_workers=1):
        return True

    def healthy_ids(self):
        return [w for w, state in self.workers.items()
                if state == "healthy"]

    def is_healthy(self, wid):
        return self.workers.get(wid) == "healthy"

    def status(self):
        return {str(w): {"state": state, "restarts": 0}
                for w, state in sorted(self.workers.items())}

    def add_worker(self):
        wid = max(self.workers) + 1
        self.workers[wid] = "starting"
        return wid

    def spawn_worker(self, wid):
        self.workers[wid] = "healthy"
        self.fleet._on_worker_up(wid)

    def retire_worker(self, wid, join_timeout=10.0):
        self.workers[wid] = "retired"
        return True

    def send(self, wid, message):
        if wid in self.dead:
            return False
        thread = threading.Thread(target=self._reply,
                                  args=(wid, message), daemon=True)
        self._replies.append(thread)
        thread.start()
        return True

    def _reply(self, wid, message):
        self.release.wait()
        self.fleet._on_message(wid, run_request(
            self.registry, 1000, message, deadline=None))


@pytest.fixture
def held_fleet(registry, small_model):
    """Start a FleetServer over a :class:`HeldSupervisor`."""
    fleets = []

    def build(num_workers, **kwargs):
        fleet = FleetServer([small_model.model_spec()],
                            num_workers=num_workers, **kwargs)
        fleet.supervisor = HeldSupervisor(fleet, registry, num_workers)
        fleets.append(fleet)
        return fleet.start()

    yield build
    for fleet in fleets:
        fleet.stop()


def _wait_for(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate() and time.monotonic() < deadline:
        time.sleep(0.01)
    return predicate()


class TestDispatch:
    def test_same_model_requests_spread_over_free_workers(
            self, held_fleet, registry, volume):
        # One model, two workers with a window of one each: the second
        # request must go to the idle worker, not wait for the first.
        fleet = held_fleet(2, inflight_per_worker=1)
        pending = [fleet.submit("small", volume, timeout=60.0)
                   for _ in range(2)]
        both_in_flight = _wait_for(lambda: fleet.total_inflight == 2,
                                   timeout=2.0)
        fleet.supervisor.release.set()
        with InferenceServer(registry, num_workers=1,
                             tile_voxels=1000) as server:
            reference = server.infer("small", volume)
        for request in pending:
            assert np.array_equal(request.result(timeout=30), reference)
        served = {wid: info["served"]
                  for wid, info in fleet.health()["workers"].items()}
        assert both_in_flight
        assert served == {"0": 1, "1": 1}

    def test_queue_waits_for_a_free_window(self, held_fleet, volume):
        # Windows full: the third request stays queued, oldest first,
        # until a worker has room again.
        fleet = held_fleet(2, inflight_per_worker=1)
        pending = [fleet.submit("small", volume, timeout=60.0)
                   for _ in range(3)]
        assert _wait_for(lambda: fleet.total_inflight == 2)
        assert fleet.queue_depth == 1
        fleet.supervisor.release.set()
        for request in pending:
            assert request.result(timeout=30).size > 0
        assert fleet.queue_depth == 0

    def test_dead_pipe_stops_its_dispatcher(self, held_fleet, volume):
        # A worker whose pipe broke before the supervisor noticed must
        # not keep pulling requests and spending their attempts.
        fleet = held_fleet(2, inflight_per_worker=1)
        fleet.supervisor.dead.add(0)
        fleet.supervisor.release.set()
        for _ in range(6):
            assert fleet.infer("small", volume, timeout=60.0).size > 0
        served = {wid: info["served"]
                  for wid, info in fleet.health()["workers"].items()}
        assert served == {"0": 0, "1": 6}

    def test_retired_dispatch_threads_exit(self, held_fleet):
        fleet = held_fleet(1)
        for _ in range(3):
            fleet.scale_to(2)
            fleet.scale_to(1)

        def dispatchers():
            return sorted(t.name for t in threading.enumerate()
                          if t in fleet._threads
                          and t.name.startswith("fleet-dispatch-"))

        expected = [f"fleet-dispatch-{wid}"
                    for wid in fleet.active_worker_ids()]
        _wait_for(lambda: dispatchers() == expected)
        assert dispatchers() == expected == ["fleet-dispatch-0"]


class TestAdmission:
    def test_high_priority_gets_full_queue(self):
        assert admission_limit(PRIORITY_HIGH, 20) == 20

    def test_fractions_are_monotonic(self):
        limits = [admission_limit(p, 20) for p in
                  (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)]
        assert limits == sorted(limits, reverse=True)
        assert limits[-1] == int(20 * ADMISSION_FRACTIONS[PRIORITY_LOW])

    def test_limit_never_below_one(self):
        assert admission_limit(PRIORITY_LOW, 1) == 1

    def test_unknown_priority_rejected(self):
        with pytest.raises(ValueError, match="priority"):
            admission_limit(9, 20)


class _OverloadedServer:
    """submit() that always answers 'come back in retry_after'."""

    def __init__(self, retry_after):
        self.retry_after = retry_after
        self.calls = 0

    def submit(self, model, volume, timeout=None, trace_id=None,
               **kwargs):
        self.calls += 1
        raise ServerOverloaded("full", retry_after=self.retry_after)


class TestClientDeadline:
    def test_backoff_never_sleeps_past_the_deadline(self):
        # Server hints 10s waits; a 0.3s deadline must fail fast with
        # DeadlineExceeded instead of sleeping 10s between attempts.
        fake = _OverloadedServer(retry_after=10.0)
        client = ServingClient(fake, max_attempts=5)
        start = time.monotonic()
        with pytest.raises(DeadlineExceeded, match="backing off"):
            client.infer("small", np.zeros((9, 9, 9)), timeout=0.3)
        assert time.monotonic() - start < 2.0
        assert fake.calls >= 1

    def test_unbounded_requests_still_retry(self):
        fake = _OverloadedServer(retry_after=0.01)
        client = ServingClient(fake, max_attempts=3)
        with pytest.raises(ServerOverloaded):
            client.infer("small", np.zeros((9, 9, 9)))
        assert fake.calls == 3

    def test_retry_sleep_is_capped_by_backoff_cap(self):
        exc = ServerOverloaded("full", retry_after=60.0)
        assert _retry_sleep(exc, 0.5, deadline=None) == 0.5

    def test_retry_sleep_raises_when_budget_consumed(self):
        exc = ServerOverloaded("full", retry_after=10.0)
        with pytest.raises(DeadlineExceeded):
            _retry_sleep(exc, 10.0, deadline=time.monotonic() + 0.05)

    def test_remaining_timeout_shrinks_per_attempt(self):
        deadline = time.monotonic() + 5.0
        first = _remaining_timeout(5.0, deadline)
        time.sleep(0.02)
        second = _remaining_timeout(5.0, deadline)
        assert second < first <= 5.0

    def test_remaining_timeout_expired_raises(self):
        with pytest.raises(DeadlineExceeded):
            _remaining_timeout(1.0, time.monotonic() - 0.01)

    def test_each_attempt_sends_remaining_budget(self, registry, volume):
        # The server-side deadline must match the client's: later
        # attempts carry less than the original timeout.
        seen = []

        class Recorder:
            def submit(self, model, vol, timeout=None, **kwargs):
                seen.append(timeout)
                if len(seen) < 3:
                    raise ServerOverloaded("busy", retry_after=0.05)

                class Done:
                    @staticmethod
                    def result(timeout=None):
                        return np.ones((1, 1, 1))
                return Done()

        out = ServingClient(Recorder(), max_attempts=5).infer(
            "small", volume, timeout=10.0)
        assert out.size == 1
        assert len(seen) == 3
        assert seen[0] > seen[1] > seen[2]


class TestControlSends:
    """A ping or stop never waits: not for a volume send holding the
    send lock, and not for a pipe whose reader stopped reading."""

    @pytest.fixture
    def pipe(self):
        ours, theirs = multiprocessing.Pipe()
        yield ours, theirs
        ours.close()
        theirs.close()

    def test_sent_when_the_pipe_is_free(self, pipe):
        ours, theirs = pipe
        assert _send_control(ours, threading.Lock(), ("ping", 1))
        assert theirs.recv() == ("ping", 1)

    def test_skipped_while_a_send_holds_the_lock(self, pipe):
        lock = threading.Lock()
        with lock:
            assert not _send_control(pipe[0], lock, ("ping", 1))
        assert not pipe[1].poll()
        assert not lock.locked()

    def test_skipped_when_the_reader_left_no_room(self, pipe):
        # Volumes that still fit can leave too little room for even a
        # ping: a blocking send would then wait for a wedged reader.
        ours, theirs = pipe
        lock = threading.Lock()
        chunk = np.zeros(1024)
        while _send_control(ours, lock, ("request", chunk)):
            pass
        started = time.monotonic()
        assert not _send_control(ours, lock, ("ping", 1))
        assert time.monotonic() - started < 1.0
        assert not lock.locked()

    def test_broken_pipe_is_false_not_raised(self, pipe):
        ours, theirs = pipe
        theirs.close()
        assert not _send_control(ours, threading.Lock(), ("stop",))
