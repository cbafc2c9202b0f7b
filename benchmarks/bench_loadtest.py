"""Capacity-planning benchmark: simulated loadtests across load
multipliers, fixed fleet vs autoscaled.

Replays one flash-crowd trace through the serving simulator at 1x /
10x / 100x load, once with a fixed 2-worker fleet and once with the
hysteresis autoscaler (1-8 workers), and reports served fraction,
p99 latency and worker-seconds for each cell.  The acceptance claim
of the loadgen subsystem — at 100x the autoscaler serves a strictly
larger fraction than the fixed fleet while paying for capacity only
while the crowd lasts — is asserted, not just printed.  Results are
printed and written to ``BENCH_loadtest.json`` in the working
directory.

Everything here is the discrete-event simulator: no processes, no
wall-clock sensitivity, deterministic output.
"""

from repro.loadgen import (
    HysteresisPolicy,
    ServiceModel,
    SimConfig,
    build_report,
    dump_report,
    scenario_config,
    generate_trace,
    simulate_serving,
)

BENCH = "loadtest"
MULTIPLIERS = (1.0, 10.0, 100.0)
FIXED_WORKERS = 2
AUTOSCALE_MAX = 8
#: ~0.11 s service per 16^3 request: 2 workers clear ~18 req/s.
SERVICE = ServiceModel(seconds_per_voxel=2.5e-5,
                       overhead_seconds=0.01)


def _trace(full):
    return generate_trace(scenario_config(
        "flash-crowd", seed=7, duration=120.0 if full else 60.0,
        base_rate=1.5, size_min=12, size_max=24, deadline=10.0))


def _run(trace, policy=None, control_interval=0.5):
    config = SimConfig(workers=FIXED_WORKERS, max_queue=32,
                       service=SERVICE,
                       control_interval=control_interval)
    result = simulate_serving(trace, config, policy)
    return build_report(
        "sim", trace, result.outcomes,
        worker_seconds=result.worker_seconds,
        workers=(None if policy else FIXED_WORKERS),
        autoscaler=(None if policy is None else {
            "enabled": True, "min": policy.min_workers,
            "max": policy.max_workers,
            "decisions": len(result.decisions),
            "final": result.final_workers}),
        multiplier=trace.config.base_rate / 1.5)


def test_loadtest_multiplier_sweep(report):
    base = _trace(report.full)
    rows = []
    results = {}
    for multiplier in MULTIPLIERS:
        trace = base.scaled(multiplier)
        # The control loop keeps its cadence *relative to the trace*
        # (same decisions per trace second), mirroring how the live
        # replay compresses deadlines but not the autoscaler clock.
        interval = 0.5 / multiplier
        fixed = _run(trace, control_interval=interval)
        scaled = _run(trace, HysteresisPolicy(
            min_workers=1, max_workers=AUTOSCALE_MAX,
            cooldown_ticks=1), control_interval=interval)
        for label, doc in (("fixed", fixed), ("autoscaled", scaled)):
            res = doc["results"]
            rows.append([
                f"{multiplier:g}", label,
                res["submitted"],
                f"{res['served_fraction']:.3f}",
                f"{res['latency']['p99']:.3g}",
                f"{doc['cost']['worker_seconds']:.4g}",
            ])
            results[f"x{multiplier:g}_{label}"] = {
                "served_fraction": res["served_fraction"],
                "served": res["served"],
                "shed": res["shed"],
                "deadline_missed": res["deadline_missed"],
                "p99_latency": res["latency"]["p99"],
                "worker_seconds": doc["cost"]["worker_seconds"],
            }
        # Reports must stay schema-valid at every scale.
        dump_report(fixed)
        dump_report(scaled)
    report.table(
        "loadtest: fixed 2 workers vs autoscaled "
        f"1-{AUTOSCALE_MAX} (flash-crowd)",
        ["mult", "fleet", "requests", "served_frac", "p99_s",
         "worker_s"], rows)
    report.emit("multiplier_sweep", results)
    # The subsystem's acceptance claim: under 100x overload the
    # autoscaler beats the fixed fleet on served fraction.
    assert results["x100_autoscaled"]["served_fraction"] \
        > results["x100_fixed"]["served_fraction"]
    # And it is not buying that with always-max capacity: at 1x it
    # pays no more than the fixed fleet.
    assert results["x1_autoscaled"]["worker_seconds"] \
        <= results["x1_fixed"]["worker_seconds"] * 1.01


def test_loadtest_determinism(report):
    trace = _trace(report.full).scaled(10.0)
    a = _run(trace, HysteresisPolicy(min_workers=1,
                                     max_workers=AUTOSCALE_MAX))
    b = _run(trace, HysteresisPolicy(min_workers=1,
                                     max_workers=AUTOSCALE_MAX))
    assert dump_report(a) == dump_report(b)
    report.emit("determinism", {"byte_identical": True})

