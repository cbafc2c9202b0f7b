"""Two-caller overlap of serving twins, per input-tile edge.

For each tile edge and each of the two serve models of
``benchmarks/e2e`` (``CTPCTPCT`` widths 4/4/1 kernel 3, and ``CTPCT``
widths 2/1 kernel 2, both FFT), build two warm models at that tile and
time two 8-tile runs

* one after the other on one model (what callers of a one-twin pool
  get), and
* at the same time from two threads, one model each (what a second
  twin buys),

in ``--pairs`` interleaved rounds.  The overlap is sequential ÷
concurrent median seconds: above 1 a second twin pays, below 1 two
callers are better off queueing.  ``TWIN_MIN_VOXELS`` is set from it.

    PYTHONPATH=src python scripts/twin_crossover.py --edges 12 18 24 27 30 36
"""

import argparse
import threading

import numpy as np

from repro.serving import ModelSpec, WarmModel
from repro.utils.timing import time_interleaved

MODELS = {
    "tiled": ModelSpec("tiled", "CTPCTPCT", builder_kwargs=dict(
        width=[4, 4, 1], kernel=3, window=2, transfer="tanh")),
    "small": ModelSpec("small", "CTPCT", builder_kwargs=dict(
        width=[2, 1], kernel=2, window=2, transfer="tanh")),
}


def overlap(spec, edge, pairs, seed):
    """The sequential and the concurrent ``Timing``."""
    a, b = WarmModel(spec, (edge,) * 3), WarmModel(spec, (edge,) * 3)
    # Two tiles per axis, abutting: 8 tiles, nothing recomputed.
    side = 2 * edge - spec.fov[0] + 1
    rng = np.random.default_rng(seed)
    volumes = [rng.standard_normal((side,) * 3) for _ in range(2)]

    def sequential():
        a.run(volumes[0])
        a.run(volumes[1])

    def concurrent():
        threads = [threading.Thread(target=m.run, args=(v,))
                   for m, v in zip((a, b), volumes)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

    try:
        return time_interleaved({"sequential": sequential,
                                 "concurrent": concurrent}, pairs).values()
    finally:
        a.close()
        b.close()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--edges", type=int, nargs="+",
                        default=[12, 18, 24, 27, 30, 32, 36])
    parser.add_argument("--pairs", type=int, default=7)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    print(f"{'model':<6} {'edge':>4} {'overlap':>7} {'seq A/A':>8} "
          f"{'conc A/A':>8}")
    for name, spec in MODELS.items():
        for edge in args.edges:
            if edge < max(spec.fov):
                continue
            seq, conc = overlap(spec, edge, args.pairs, args.seed)
            print(f"{name:<6} {edge:>4} {seq.median / conc.median:>7.2f} "
                  f"{seq.spread:>+8.1%} {conc.spread:>+8.1%}", flush=True)


if __name__ == "__main__":
    main()
