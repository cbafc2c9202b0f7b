"""One workload, one fresh process.

``run.py`` starts this file once per measurement so that every run has
a cold interpreter, its own peak RSS and no pool or cache carried over.
Modes:

``reference``  compute the outputs the correctness gate compares with
               (its own process: the whole-volume model it builds would
               otherwise count into the measured peak RSS);
``setup``      set up, pass the gate, warm up, report ``setup_s``, exit;
``measure``    the same, then the timed window with tracing off;
``trace``      the same, then a short plain window, a short traced one,
               the stage replay and the per-layer probes.

The last line of standard output is one JSON object.
"""

import argparse
import json
import resource
import sys
import time

from checkout import OUT, use_checkout_source

use_checkout_source()
# The program is imported here, on the clock: this file is only ever an
# entry point, and its import cost is part of every set-up.
_import_start = time.perf_counter()
import numpy as np  # noqa: E402
from repro.memory import image_allocator  # noqa: E402

import probes  # noqa: E402
import workloads as W  # noqa: E402
from spans import SpanRecorder  # noqa: E402

IMPORT_S = time.perf_counter() - _import_start


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", required=True,
                        choices=("reference", "setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--dir", required=True,
                        help="run directory holding reference.npz")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() of the parent just before it "
                             "started this process")
    parser.add_argument("--quick", action="store_true")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse(argv)
    wl = W.WORKLOADS[args.workload]
    reference_path = f"{args.dir}/reference.npz"
    if args.mode == "reference":
        np.savez(reference_path, *W.reference_outputs(wl, args.seed))
        print(json.dumps({"reference": reference_path}))
        return 0
    with np.load(reference_path) as data:
        reference = [data[f"arr_{i}"] for i in range(len(data.files))]

    warmup = min(wl.warmup, 2) if args.quick else wl.warmup
    session = W.open_session(wl, args.seed)
    try:
        session.warm_up(reference, warmup)
        setup_s = time.time() - args.spawned_at
        if args.mode == "setup":
            result = {"metrics": {"setup_s": setup_s}}
        elif args.mode == "measure":
            result = measure(wl, session, args.seconds)
            result["metrics"]["setup_s"] = setup_s
        else:
            result = trace(wl, session, args)
    except W.GateFailure as failure:
        print(f"correctness gate failed: {failure}", file=sys.stderr)
        return 3
    finally:
        session.close()
    if args.mode == "trace":
        # The probes build their own networks and servers; they run
        # once the workload's own are gone.
        probe(wl, args, result)
    result["numpy"] = np.__version__
    print(json.dumps(result))
    return 0


def measure(wl, session, seconds):
    loop = W.closed_loop(session.op, seconds, clients=wl.clients,
                         finish=session.finish)
    session.check_after()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    p50 = W.percentile(loop.samples, 50)
    return {
        "attempted": loop.attempted, "failed": loop.failed,
        "metrics": {
            "op_s_p50": p50,
            # The tail as a multiple of the median: the sandbox's speed
            # drifts by ~20 % over minutes, which moves p50 and p90
            # together and leaves their ratio steady (README.md).
            "op_p90_over_p50": W.percentile(loop.samples, 90) / p50,
            "voxels_per_s": loop.voxels / loop.wall_s,
            "cpu_s_per_op": loop.cpu_s / loop.attempted,
            "peak_rss_mb": peak_kb / 1024.0,
        },
    }


#: The plain and the traced window are cut into this many slices each
#: and run alternately, so that both see the same states of a machine
#: whose speed drifts over seconds.
SLICES = 4


def trace(wl, session, args):
    """A plain and a traced window of a fifth of the run each, then one
    op replayed a layer further down."""
    slices = 1 if args.quick else SLICES
    window = args.seconds / 5.0 / slices
    cache, pool = session.cache.stats, image_allocator().stats

    def counters():
        return cache.reused, cache.computed, pool.pool_hits, pool.requests

    before = counters()
    recorder = SpanRecorder()
    plain, traced = [], []
    for _ in range(slices):
        plain.append(W.closed_loop(session.op, window, clients=wl.clients,
                                   finish=session.finish))
        traced.append(W.closed_loop(session.op, window, clients=wl.clients,
                                    finish=session.finish,
                                    recorder=recorder))
    plain, traced = W.merge_loops(plain), W.merge_loops(traced)
    reused, computed, hits, requests = (
        after - start for after, start in zip(counters(), before))
    session.check_after()
    replay = SpanRecorder()
    session.replay(replay)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"trace_{wl.name}.json", "w") as handle:
        json.dump({"workload": wl.name, "seed": args.seed,
                   "clients": wl.clients, "wall_s": traced.wall_s,
                   "loop": recorder.spans, "replay": replay.spans}, handle)
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "table": recorder.table(), "replay": replay.table(root="replay"),
        "metrics": {
            "bench.import_s": IMPORT_S,
            "bench.trace_overhead_share": (
                W.percentile(traced.samples, 50)
                / W.percentile(plain.samples, 50) - 1.0),
            "tensor.fft_cache.reuse_fraction": (
                reused / (reused + computed) if reused + computed else 0.0),
            "memory.pools.hit_rate": hits / requests if requests else 0.0,
        },
    }


def probe(wl, args, result):
    repeats, steps = (3, 2) if args.quick else (30, 6)
    metrics = result["metrics"]
    metrics["graph.build_ms"] = probes.graph_build_ms(wl, repeats)
    metrics["data.sample_ms"] = probes.sample_ms(wl, args.seed, repeats)
    metrics.update(probes.network_probes(wl, args.seed, steps))
    serving, attempted, failed = probes.serving_probe(
        wl, args.seed, args.seconds / 10.0, repeats)
    metrics.update(serving)
    result["attempted"] += attempted
    result["failed"] += failed
    metrics.update(probes.kernel_probes(wl, args.seed, repeats))


if __name__ == "__main__":
    sys.exit(main())
