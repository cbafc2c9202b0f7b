"""The repo benchmark: four train/serve workloads, six end-to-end
metrics, a per-layer table measured from outside.

    python benchmarks/e2e/run.py [--seed N] [--out FILE] [--repeats R]
    python benchmarks/e2e/run.py --trace
    python benchmarks/e2e/run.py --quick
    python benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Every workload runs in fresh child processes, one at a time
(``child.py``): a reference run for the correctness gate, then either
set-up repeats plus the measured run (end-to-end metrics, tracing off)
or the traced run (per-layer metrics).  Each metric is printed by name
with its unit; with ``--workload`` the last line of standard output is
the one JSON object ``BENCHMARK.json``'s contract asks for.  See
README.md beside this file.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from checkout import HERE, OUT, ROOT, benchmark_contract, use_checkout_source

SCHEMA = "repro.bench.e2e/v1"
#: Set-ups per measured run (the measured child's own plus set-up-only
#: children); ``setup_s`` is their median.
SETUP_REPEATS = 3
#: A child that has not answered by then is killed; the whole run must
#: end within the contract's 180 s.
CHILD_TIMEOUT_S = 150


def parse(argv):
    contract = benchmark_contract()
    names = [w["name"] for w in contract["workloads"]]
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=names,
                        help="run one workload and end with the contract's "
                             "JSON line (default: all, one after another)")
    parser.add_argument("--seed", type=int, default=1,
                        help="every input is generated from it (default 1)")
    parser.add_argument("--seconds", type=float,
                        default=float(contract["run_seconds"]),
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="the separate traced run: per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="about three ops per workload, one set-up, "
                             "three repeats per probe: a smoke test")
    parser.add_argument("--repeats", type=int, default=1,
                        help="run the suite this many times, seed, "
                             "seed+1, ... (compare.py reads the spread)")
    parser.add_argument("--out", help="write the results document here")
    args = parser.parse_args(argv)
    if args.quick:
        args.seconds = min(args.seconds, 1.0)
    return args, contract


def run_child(mode, workload, seed, seconds, quick, run_dir):
    command = [sys.executable, str(HERE / "child.py"), "--mode", mode,
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--dir", run_dir,
               "--spawned-at", repr(time.time())]
    if quick:
        command.append("--quick")
    # subprocess.run kills and reaps the child on timeout.
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"benchmarks/e2e: {mode} run of {workload} exited "
                         f"with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, quick):
    """All child processes of one run of one workload -> its result."""
    OUT.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT)
    try:
        run_child("reference", workload, seed, seconds, quick, run_dir)
        if trace:
            return run_child("trace", workload, seed, seconds, quick, run_dir)
        setups = [
            run_child("setup", workload, seed, seconds, quick,
                      run_dir)["metrics"]["setup_s"]
            for _ in range(0 if quick else SETUP_REPEATS - 1)]
        result = run_child("measure", workload, seed, seconds, quick,
                           run_dir)
        setups.append(result["metrics"]["setup_s"])
        result["metrics"]["setup_s"] = statistics.median(setups)
        return result
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def with_units(result, declared):
    """The contract's shape: exactly the declared metrics, each with
    its unit; a missing or an undeclared one is a harness bug."""
    values = result["metrics"]
    names = [m["name"] for m in declared]
    if sorted(values) != sorted(names):
        raise SystemExit(
            f"benchmarks/e2e: metrics emitted and declared differ: "
            f"{sorted(set(values) ^ set(names))}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]],
                                "unit": m["unit"]} for m in declared},
    }


def print_result(workload, seed, result, shaped):
    print(f"\n== {workload} (seed {seed}): {shaped['attempted']} ops "
          f"attempted, {shaped['failed']} failed ==")
    for name, metric in shaped["metrics"].items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    for title, key in (("traced loop, self time per span", "table"),
                       ("stage replay of one op", "replay")):
        table = result.get(key)
        if table is None:
            continue
        total = table["total_s"]
        print(f"  -- {title} (total {total:.4f} thread-seconds) --")
        rows = sorted(table["rows"].items(), key=lambda r: -r[1]["self_s"])
        rows.append(("unaccounted", {"calls": "",
                                     "self_s": table["unaccounted_s"]}))
        for name, row in rows:
            print(f"  {name:<36} {row['self_s']:>10.4f} s "
                  f"{100 * row['self_s'] / total:>6.1f} %  {row['calls']}")


def fingerprint():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "git_sha": sha or "unknown",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None):
    args, contract = parse(argv)
    use_checkout_source()  # fail before spawning anything
    declared = contract["per_layer" if args.trace else "end_to_end"]
    names = ([args.workload] if args.workload
             else [w["name"] for w in contract["workloads"]])
    document = {"schema": SCHEMA, "claim": None, "trace": bool(args.trace),
                "seconds": args.seconds, "quick": args.quick,
                "fingerprint": fingerprint(), "runs": []}
    shaped = None
    for repeat in range(args.repeats):
        seed = args.seed + repeat
        run = {"seed": seed, "workloads": {}}
        for name in names:
            result = run_workload(name, seed, args.seconds, args.trace,
                                  args.quick)
            document["fingerprint"]["numpy"] = result.pop("numpy")
            shaped = with_units(result, declared)
            print_result(name, seed, result, shaped)
            run["workloads"][name] = {
                **shaped, **{key: result[key] for key in ("table", "replay")
                             if key in result}}
        document["runs"].append(run)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(document, handle, indent=1)
            handle.write("\n")
        print(f"\nwrote {args.out}")
    if args.workload:
        print(json.dumps(shaped))
    return 0


if __name__ == "__main__":
    sys.exit(main())
