"""Fleet failover cost: throughput of a clean fleet vs the same fleet
with a worker killed mid-run, plus the graceful-drain latency.

The interesting number is the *recovery tax*: how much wall-clock a
mid-load worker crash adds when every affected request goes back to
the head of the fleet's one queue and the next free worker takes it
(the answers stay bitwise identical — the chaos tests assert that;
here we only price it).  Results are
printed and written to ``BENCH_fleet.json`` in the working directory.
"""

import time

import numpy as np

from repro.serving import FleetServer, ModelSpec, SupervisorConfig

BENCH = "fleet"
VOLUME = (16, 16, 16)

# Fast failure detection so the benchmark measures recovery, not the
# default production heartbeat budget.
FAST = SupervisorConfig(heartbeat_interval=0.1, heartbeat_timeout=0.6,
                        restart_backoff=0.05, restart_backoff_max=0.2)


def make_fleet(spec_path, workers, *, faults=None,
               pool_name="fleet-bench"):
    spec = ModelSpec.from_files("bench", str(spec_path),
                                conv_mode="direct")
    return FleetServer([spec], num_workers=workers,
                       prewarm_shape=VOLUME, worker_faults=faults,
                       supervisor_config=FAST, pool_name=pool_name)


def test_failover_recovery_cost(spec_path, requests, report):
    volume = np.random.default_rng(5).standard_normal(VOLUME)
    workers = 3 if report.full else 2
    rows, results = [], []
    for label, faults in (
            ("clean", None),
            # Kill whichever worker handles the 3rd request; the
            # victim requeues and the worker restarts mid-run.
            ("kill mid-run", "fail:serve_worker:3")):
        fleet = make_fleet(spec_path, workers, faults=faults,
                           pool_name=f"fleet-bench-{len(rows)}")
        fleet.start(ready_timeout=120)
        try:
            seconds, answers = report.closed_loop(
                lambda: fleet.infer("bench", volume, timeout=120.0),
                requests, 2)
            served = len(answers)
            doc = fleet.health()
            deaths = sum(w["restarts"]
                         for w in doc["workers"].values())
        finally:
            fleet.stop()
        rows.append([label, served, f"{seconds:.3g}",
                     f"{served / seconds:.3g}", deaths])
        results.append({"scenario": label, "requests": served,
                        "seconds": seconds,
                        "requests_per_second": served / seconds,
                        "worker_restarts": deaths})
    report.table(
        f"fleet of {workers}, {requests} requests, volume {VOLUME}",
        ["scenario", "served", "seconds", "req/s", "restarts"], rows)
    report.emit("failover", results)
    assert results[0]["requests"] == requests
    assert results[1]["requests"] == requests  # nothing dropped
    assert results[1]["worker_restarts"] >= 1


def test_drain_latency_under_load(spec_path, requests, report):
    volume = np.random.default_rng(6).standard_normal(VOLUME)
    fleet = make_fleet(spec_path, 3 if report.full else 2,
                       pool_name="fleet-bench-drain")
    fleet.start(ready_timeout=120)
    stopped = False
    try:
        accepted = [fleet.submit("bench", volume, timeout=120.0)
                    for _ in range(requests)]
        start = time.perf_counter()
        fleet.begin_drain()
        drained = fleet.wait_drained(timeout=120.0)
        seconds = time.perf_counter() - start
        for request in accepted:
            request.result(timeout=120.0)
        fleet.stop()
        stopped = True
    finally:
        if not stopped:
            fleet.stop()
    report.table("graceful drain under load",
                 ["accepted", "drained", "seconds"],
                 [[len(accepted), drained, f"{seconds:.3g}"]])
    report.emit("drain", {"accepted": len(accepted), "drained": drained,
                          "seconds": seconds})
    assert drained

