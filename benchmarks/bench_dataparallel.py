"""Data-parallel training throughput and determinism.

Sweeps the worker-process count of :class:`repro.parallel.ParallelTrainer`
over a fixed global batch and measures seconds per global update —
the multi-process analogue of the paper's speedup-vs-threads protocol
(Figs 5–7), with the determinism contract checked on the side: every
worker count must finish with a bitwise-identical parameter digest.

The worker counts' rounds interleave (``repro.utils.timing``), >= 4
each; seconds per update is the median round, written beside its A/A
spread (``aa_spread``) so a reader can see whether a difference
between worker counts stands out of the noise.

Results land in ``BENCH_dataparallel.json``.  The >= 1.5x speedup
assertion at 4 workers only runs on machines that actually have >= 4
CPUs; on smaller hosts the sweep still runs and records the (honest)
numbers.
"""

import functools

import pytest

from repro.core import state_digest
from repro.data import RandomProvider
from repro.parallel import ModelConfig, ParallelTrainer, visible_cpus
from repro.utils.timing import time_interleaved

BENCH = "dataparallel"
INPUT = (20, 20, 20)
BATCH = 4
WORKER_COUNTS = (1, 2, 4)

CFG = ModelConfig(
    input_shape=INPUT,
    spec="CTMCTCT",
    layered_kwargs={"width": 4, "kernel": 3, "window": 2,
                    "transfer": "tanh", "final_transfer": "linear",
                    "skip_kernels": True, "output_nodes": 1},
    conv_mode="direct",
    loss="euclidean",
    seed=7,
    learning_rate=1e-4)


def output_shape():
    graph = CFG.build_graph()
    graph.validate()
    graph.propagate_shapes(INPUT)
    return graph.output_nodes[0].shape


def test_dataparallel_speedup(report):
    cpus = visible_cpus()
    rounds = 10 if report.full else 4
    trainers = {}
    try:
        for workers in WORKER_COUNTS:
            trainers[workers] = ParallelTrainer(
                CFG, RandomProvider, (INPUT, output_shape(), False, None),
                workers=workers, batch=BATCH, worker_timeout=300.0)
        timings = time_interleaved(
            {w: functools.partial(t.run, 1) for w, t in trainers.items()},
            rounds)
        digests = {w: state_digest(t.network) for w, t in trainers.items()}
    finally:
        for trainer in trainers.values():
            trainer.close()
    baseline = timings[WORKER_COUNTS[0]].median
    results = [{"workers": w, "seconds_per_update": t.median,
                "aa_spread": t.spread, "speedup": baseline / t.median,
                "digest": digests[w]} for w, t in timings.items()]
    report.table(
        f"data-parallel median seconds/update over {rounds} interleaved "
        f"rounds, batch {BATCH} on {cpus} CPU(s)",
        ["workers", "s/update", "A/A spread", "speedup"],
        [[r["workers"], f"{r['seconds_per_update']:.3g}",
          f"{r['aa_spread']:+.1%}", f"{r['speedup']:.3g}"] for r in results])
    report.emit("speedup", {"input": list(INPUT), "batch": BATCH,
                            "rounds": rounds, "visible_cpus": cpus,
                            "by_workers": results})
    # The determinism contract holds on any machine.
    assert len(set(digests.values())) == 1, digests
    # The throughput contract only on machines with the CPUs for it.
    if cpus >= 4:
        four = next(r for r in results if r["workers"] == 4)
        assert four["speedup"] >= 1.5, (
            f"expected >= 1.5x at 4 workers on {cpus} CPUs, got "
            f"{four['speedup']:.2f}x")
    else:
        pytest.skip(f"only {cpus} visible CPU(s): recorded results "
                    "without asserting speedup")

