#!/usr/bin/env python
"""One-command paper reproduction.

Regenerates every table and figure of the paper's evaluation through
``repro.reporting`` (the generator ``repro figure`` also prints from),
measures the repo's ablations that have no counterpart in
``benchmarks/e2e`` on this host, and writes a self-contained markdown
report — a single artifact to diff across machines or versions.

Run:  python examples/reproduce_paper.py [output.md]
      (default output: reproduction_report.md; about a minute)
"""

import dataclasses
import sys
import threading
import time

import numpy as np

from repro import reporting
from repro.utils.timing import time_interleaved


def md_table(header, rows) -> str:
    lines = ["| " + " | ".join(str(h) for h in header) + " |",
             "|" + "---|" * len(header)]
    for row in rows:
        lines.append("| " + " | ".join(str(c) for c in row) + " |")
    return "\n".join(lines)


def timed_rows(variants, rounds):
    """Time *variants* with the one ruler; per label, the median
    seconds, its ratio to the first label's and its A/A spread."""
    timing = time_interleaved(variants, rounds)
    base = next(iter(timing.values())).median
    return {label: [f"{t.median:.3g}", f"{t.median / base:.2f}",
                    f"{t.spread:+.1%}"]
            for label, t in timing.items()}


# --- model / simulator ablations ----------------------------------------

def dense_training():
    """§IX: GPU offset replay vs ZNN max-filter dense pass."""
    from repro.baselines import (GPU_FRAMEWORKS, dense_offset_count,
                                 gpu_dense_seconds, znn_dense_seconds)

    rows = []
    for dims, kernel, out, fw in ((2, 20, 8, "theano"),
                                  (3, 5, 4, "theano-3d")):
        gpu = gpu_dense_seconds(GPU_FRAMEWORKS[fw], dims, kernel, out)
        znn = znn_dense_seconds(dims, kernel, out)
        rows.append([f"{dims}D k={kernel}", dense_offset_count(dims),
                     f"{gpu:.3f}", f"{znn:.3f}", f"{gpu / znn:.1f}x"])
    return ["config", "offsets", "gpu s", "znn s", "znn advantage"], rows


def layer_crossover():
    """§IV: the FFT/direct crossover kernel of a whole layer (FLOP
    model) moves to smaller kernels as the layer widens."""
    from repro.core import layer_crossover_kernel_size

    ks = range(2, 12)
    rows = []
    for f in (1, 2, 4, 8, 16, 64):
        k = layer_crossover_kernel_size((32, 32, 32), ks, f, f)
        rows.append([f, k if k is not None else f"> {max(ks)}"])
    return ["width f=f'", "crossover k"], rows


def measured_crossover():
    from repro.core import autotune_layer

    rows = []
    for k in (2, 3, 5, 7):
        mode, t_d, t_f = autotune_layer((32, 32, 32), k, repeats=2)
        rows.append([f"{k}^3", f"{t_d:.4f}", f"{t_f:.4f}", mode])
    return ["kernel", "direct s", "fft s", "chosen"], rows


POLICIES = ("priority", "fifo", "lifo", "random")


def scheduling_policies():
    """§X: speedup of the 3D net on the Xeon Phi model per ready-queue
    policy."""
    from repro.simulate import (get_machine, paper_task_graph,
                                simulate_schedule)

    machine = get_machine("xeon-phi")
    rows = []
    for width in (5, 20, 60):
        tg = paper_task_graph(3, width)
        speedups = [simulate_schedule(tg, machine, machine.threads,
                                      policy=p).speedup for p in POLICIES]
        rows.append([width] + [f"{s:.4g}" for s in speedups])
    return ["width"] + list(POLICIES), rows


def locality():
    """§VI-A: how often the accumulating-task stream switches sums."""
    from repro.graph import build_task_graph
    from repro.simulate import (get_machine, locality_report,
                                paper_graph_3d, simulate_schedule)

    graph = paper_graph_3d(10)
    tg = build_task_graph(graph, conv_mode="direct")
    machine = get_machine("xeon-18")
    rows = []
    for policy in POLICIES:
        result = simulate_schedule(tg, machine, machine.threads,
                                   policy=policy, record_timeline=True)
        rep = locality_report(result, graph)
        rows.append([policy, f"{rep.switch_rate:.3f}",
                     f"{rep.mean_working_set:.2f}",
                     f"{result.speedup:.2f}"])
    return ["policy", "switch rate", "working set/32", "speedup"], rows


def overhead_sensitivity():
    """Speedup vs per-task sync overhead (FLOP-equivalents): why the
    queue must be cheap, and why it bites narrow networks first."""
    from repro.simulate import (get_machine, paper_task_graph,
                                simulate_schedule)

    overheads = (0.0, 2e3, 2e4, 2e5, 2e6)
    base = get_machine("xeon-18")
    rows = []
    for width in (5, 40):
        tg = paper_task_graph(3, width)
        speedups = [simulate_schedule(
            tg, dataclasses.replace(base, sync_overhead=o),
            base.threads).speedup for o in overheads]
        rows.append([width] + [f"{s:.4g}" for s in speedups])
    return ["width"] + [f"{o:g}" for o in overheads], rows


# --- measured ablations (this host) -------------------------------------

def summation(threads=4, per_thread=4, shape=(48, 48, 48)):
    """§VII-B: *threads* threads accumulating into one node through
    the wait-free sum, the naive locked sum and the deterministic
    ordered sum.  (Under the GIL the additions serialise either way;
    the structural property — a pointer-only critical section — is
    what ``repro lint``'s swap-only rule enforces.)"""
    from repro.sync import ConcurrentSum, NaiveLockedSum, OrderedSum

    def accumulate(cls):
        """(seconds, max abs error of the sum); fresh arrays per run, since
        the wait-free sum adds into the arrays it is handed."""
        rng = np.random.default_rng(0)
        arrays = [rng.standard_normal(shape)
                  for _ in range(threads * per_thread)]
        reference = sum(arrays)
        total = cls(len(arrays))
        barrier = threading.Barrier(threads + 1)

        def worker(first):
            barrier.wait()
            for i in range(first, first + per_thread):
                total.add(arrays[i], i)

        workers = [threading.Thread(target=worker, args=(t * per_thread,))
                   for t in range(threads)]
        for w in workers:
            w.start()
        barrier.wait()
        t0 = time.perf_counter()
        for w in workers:
            w.join()
        seconds = time.perf_counter() - t0
        return seconds, float(np.abs(total.get() - reference).max())

    rows = []
    for name, cls in (("wait-free", ConcurrentSum),
                      ("naive-locked", NaiveLockedSum),
                      ("ordered", OrderedSum)):
        runs = [accumulate(cls) for _ in range(3)]
        seconds = [s for s, _ in runs]
        rows.append([name, f"{min(seconds):.3g}",
                     f"{np.mean(seconds):.3g}",
                     f"{max(err for _, err in runs):.1g}"])
    return ["scheme", "best s", "mean s", "max abs error"], rows


def allocator(rounds=50, repeats=9):
    """§VII-C: a round-shaped allocate/free trace through the pooled
    power-of-two allocator and through fresh ``np.empty``."""
    from repro.memory import PoolAllocator

    shapes = [(24, 24, 24), (12, 12, 12), (24, 24, 24), (6, 6, 6)]
    alloc = PoolAllocator(alignment=64)

    def pooled():
        for _ in range(rounds):
            live = [alloc.allocate_array(s) for s in shapes]
            for a in live:
                a[0, 0, 0] = 1.0
            for a in live:
                alloc.deallocate_array(a)

    def fresh():
        for _ in range(rounds):
            for a in [np.empty(s) for s in shapes]:
                a[0, 0, 0] = 1.0

    timed = timed_rows({"pooled": pooled, "fresh np.empty": fresh},
                       repeats)
    live_bytes = sum(int(np.prod(s)) * 8 for s in shapes)
    return (["scheme", f"median s / {rounds} rounds", "× pooled",
             "A/A spread", "hit rate", "held / live bytes"],
            [["pooled", *timed["pooled"], f"{alloc.stats.hit_rate:.4f}",
              f"{alloc.held_bytes() / live_bytes:.2f}"],
             ["fresh np.empty", *timed["fresh np.empty"], "-", "-"]])


def memoization(rounds=9, width=4, n=18):
    """§IV: FFT computations and seconds per training round with the
    spectrum cache on and off (Table II's 9C -> 6C in vivo)."""
    from repro.core import SGD, Network
    from repro.graph import build_layered_network

    x = np.random.default_rng(1).standard_normal((n, n, n))
    nets, steps = {}, {}
    for label, memoize in (("memoized", True), ("plain", False)):
        graph = build_layered_network("CTCT", width=width, kernel=3,
                                      transfer="tanh")
        net = nets[label] = Network(
            graph, input_shape=(n, n, n), conv_mode="fft",
            memoize=memoize, seed=0, optimizer=SGD(learning_rate=1e-3))
        targets = {node.name: np.zeros(node.shape)
                   for node in net.output_nodes}

        def step(net=net, targets=targets):
            net.train_step(x, targets)
            net.synchronize()

        steps[label] = step
    timed = timed_rows(steps, rounds)
    rows = []
    for label, net in nets.items():
        stats = net.cache.stats
        # One untimed round and *rounds* timed ones.
        rows.append([label, f"{stats.computed / (rounds + 1):.4g}",
                     *timed[label], f"{stats.reuse_fraction:.3f}"])
    return (["mode", "FFTs / round", "median s / update", "× memoized",
             "A/A spread", "reuse fraction"], rows)


SECTIONS = (
    ("Table I — layer FLOPs (f=4, n=32^3, k=p=4)", reporting.table1),
    ("Table II — conv layer total FLOPs (f=f'=4, n=24^3)",
     reporting.table2),
    ("Tables III & IV — layer T_inf (f=f'=8, n=16^3, k=5^3)",
     reporting.table3),
    ("Table V — machine models", reporting.table5),
    ("Fig 4(a) — achievable speedup (direct)",
     lambda: reporting.figure4(mode="direct")),
    ("Fig 4(b) — achievable speedup (fft-memo)",
     lambda: reporting.figure4(mode="fft-memo")),
    ("Fig 5 — 3D speedup vs threads on xeon-18 (simulated)",
     lambda: reporting.figure5("xeon-18")),
    ("Fig 5 — 3D speedup vs threads on xeon-phi (simulated)",
     lambda: reporting.figure5("xeon-phi")),
    ("Fig 6 — 2D max speedup vs width (simulated)",
     lambda: reporting.figure6_7(2)),
    ("Fig 7 — 3D max speedup vs width (simulated)",
     lambda: reporting.figure6_7(3)),
    ("Fig 8 — ZNN vs GPU frameworks, 2D (modelled s/update)",
     reporting.figure8),
    ("Fig 9 — ZNN vs Theano, 3D (modelled s/update)", reporting.figure9),
    ("§IX dense training — GPU offset replay vs ZNN max-filter",
     dense_training),
    ("§IV crossover — layer-level FFT/direct crossover kernel "
     "(FLOP model, 32^3 images)", layer_crossover),
    ("§IV autotuning — measured direct vs FFT on this host "
     "(32^3 images)", measured_crossover),
    ("§X scheduling policies — speedup on xeon-phi (3D net, simulated)",
     scheduling_policies),
    ("§VI-A locality — sum-switch rate per scheduling policy "
     "(3D width 10, xeon-18)", locality),
    ("Overhead sensitivity — speedup vs per-task sync overhead "
     "(xeon-18 model, 3D net)", overhead_sensitivity),
    ("§VII-B summation — 4 threads x 4 images of 48^3 (this host)",
     summation),
    ("§VII-C allocator — pooled vs fresh allocation (this host)",
     allocator),
    ("FFT memoization — per training round (this host)", memoization),
)


def main() -> None:
    out_path = sys.argv[1] if len(sys.argv) > 1 else "reproduction_report.md"
    t_start = time.time()
    sections = []
    for title, table in SECTIONS:
        header, rows = table()
        sections.append(f"## {title}\n\n{md_table(header, rows)}\n")
        print(f"[{time.time() - t_start:6.1f}s] {title}")

    import repro
    preamble = (
        "# ZNN reproduction report\n\n"
        f"Generated by `examples/reproduce_paper.py` (repro "
        f"{repro.__version__}) in {time.time() - t_start:.0f}s.  "
        "Scalability figures come from the discrete-event machine "
        "simulator and the CPU-vs-GPU figures from calibrated cost "
        "models — see DESIGN.md for the substitution rationale and "
        "EXPERIMENTS.md for the paper-vs-measured discussion.  "
        "Wall-clock of the training and serving paths is "
        "`benchmarks/e2e/run.py`'s job, not this report's.\n\n")
    with open(out_path, "w", encoding="utf-8") as fh:
        fh.write(preamble + "\n".join(sections))
    print(f"\nreport written to {out_path}")


if __name__ == "__main__":
    main()
