"""Serving-pipeline throughput: requests/s and dense voxels/s through
the full admission → worker → warm-model → tile-stitch path.

Measures the in-process server (no HTTP) on a small CTPCT model:
steady-state throughput for a closed-loop client at several worker
counts, the cold-start cost the warm cache removes (first request
builds + prewarms the dense twin), and the tile-budget trade-off
(smaller tiles -> more halo recompute).  Results are printed and
written to ``BENCH_serving.json`` in the working directory.  (The
per-request latency of this model is ``benchmarks/e2e``'s
``serve_small_20`` workload.)
"""

import time

import numpy as np

from repro.serving import InferenceServer, ModelRegistry, ModelSpec
from repro.utils.timing import time_interleaved

BENCH = "serving"
VOLUME = (20, 20, 20)


def make_registry(spec_path):
    registry = ModelRegistry(max_models=2)
    registry.register(ModelSpec.from_files("bench", spec_path,
                                           conv_mode="fft"))
    return registry


def voxels_served(server, volume, requests, clients, report):
    """(seconds, dense voxels produced) for a closed-loop client."""
    seconds, sizes = report.closed_loop(
        lambda: server.infer("bench", volume, timeout=120).size,
        requests, clients)
    return seconds, sum(sizes)


def test_throughput_vs_workers(spec_path, requests, report):
    volume = np.random.default_rng(0).standard_normal(VOLUME)
    rows, results = [], []
    for workers in (1, 2, 4) if report.full else (1, 2):
        registry = make_registry(spec_path)
        with InferenceServer(registry, num_workers=workers,
                             max_queue=2 * requests,
                             tile_voxels=2000) as server:
            server.infer("bench", volume)  # warm the twin off the clock
            seconds, voxels = voxels_served(server, volume, requests, 4,
                                            report)
        registry.close()
        rps = requests / seconds
        rows.append([workers, f"{seconds:.3g}", f"{rps:.3g}",
                     f"{voxels / seconds:.3g}"])
        results.append({"workers": workers, "requests": requests,
                        "seconds": seconds, "requests_per_second": rps,
                        "voxels_per_second": voxels / seconds})
    report.table(f"serving throughput, volume {VOLUME}, tile budget 2000",
                 ["workers", "seconds", "req/s", "voxels/s"], rows)
    assert all(r["requests_per_second"] > 0 for r in results)
    report.emit("throughput_vs_workers", results)


def test_warm_cache_removes_cold_start(spec_path, report):
    """First request pays twin build + spectra prewarm; steady-state
    requests must be substantially faster."""
    volume = np.random.default_rng(1).standard_normal(VOLUME)
    registry = make_registry(spec_path)
    with InferenceServer(registry, num_workers=1,
                         tile_voxels=2000) as server:
        start = time.perf_counter()
        server.infer("bench", volume)
        cold = time.perf_counter() - start
        warm = time_interleaved(
            {"warm": lambda: server.infer("bench", volume)}, 3)["warm"]
    registry.close()
    report.table("cold start vs warm cache (seconds/request; warm: "
                 "median of 3)", ["cold", "warm", "A/A spread", "speedup"],
                 [[f"{cold:.3g}", f"{warm.median:.3g}",
                   f"{warm.spread:+.1%}", f"{cold / warm.median:.2g}"]])
    report.emit("cold_vs_warm", {"cold_seconds": cold,
                                 "warm_seconds": warm.median,
                                 "warm_aa_spread": warm.spread})
    assert cold > warm.median


def test_tile_budget_tradeoff(spec_path, requests, report):
    """Smaller tiles raise the halo recompute fraction; throughput
    should not improve as the budget shrinks below the volume."""
    volume = np.random.default_rng(2).standard_normal(VOLUME)
    rows, results = [], []
    for budget in (8000, 2000, 700):
        registry = make_registry(spec_path)
        with InferenceServer(registry, num_workers=1,
                             tile_voxels=budget) as server:
            server.infer("bench", volume)
            seconds, voxels = voxels_served(
                server, volume, max(4, requests // 2), 2, report)
        registry.close()
        rows.append([budget, f"{seconds:.3g}", f"{voxels / seconds:.3g}"])
        results.append({"tile_voxels": budget, "seconds": seconds,
                        "voxels_per_second": voxels / seconds})
    report.table(f"tile-budget sweep, volume {VOLUME}",
                 ["tile budget", "seconds", "voxels/s"], rows)
    report.emit("tile_budget", results)
    assert all(r["seconds"] > 0 for r in results)
