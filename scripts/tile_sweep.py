"""Request cost at the planner's tile against the largest cube, per
volume edge.

For each serve model of ``benchmarks/e2e`` (``CTPCTPCT`` widths 4/4/1
kernel 3, and ``CTPCT`` widths 2/1 kernel 2, both FFT), each volume
edge and each input-tile budget, build one warm model at the tile
``serving.tiler.plan_volume`` picks and one at the largest 11-smooth
cube under the budget (``largest_fast_len``: the tile a largest-cube
planner on FFT-fast lengths picks for these cubic volumes), then time
``WarmModel.run`` on one volume with each in ``--repeats`` interleaved
rounds.  Times are the median wall-clock milliseconds per request;
``ratio`` is planner ÷ cube, so below 1 the planner's tile is cheaper.

    PYTHONPATH=src python scripts/tile_sweep.py --edges 20 32 48 64 80 \\
        --budgets 46656 2000
"""

import argparse
import functools

import numpy as np

from repro.serving import ModelSpec, WarmModel, largest_fast_len, plan_volume
from repro.serving.tiler import TilePlan
from repro.utils.timing import time_interleaved

MODELS = {
    "tiled": ModelSpec("tiled", "CTPCTPCT", builder_kwargs=dict(
        width=[4, 4, 1], kernel=3, window=2, transfer="tanh")),
    "small": ModelSpec("small", "CTPCT", builder_kwargs=dict(
        width=[2, 1], kernel=2, window=2, transfer="tanh")),
}


def largest_cube(edge, fov, budget):
    """The largest 11-smooth cube edge within *edge* and *budget*, or
    None when no such cube covers the fov."""
    side = int(round(budget ** (1 / 3)))
    while side ** 3 > budget:
        side -= 1
    return largest_fast_len(min(edge, side), max(fov))


def sweep_point(spec, edge, budget, repeats, seed):
    """``(planner plan, cube plan, planner ms, cube ms)``, or None when
    no cube fits."""
    shape = (edge,) * 3
    cube = largest_cube(edge, spec.fov, budget)
    if cube is None:
        return None
    plans = [plan_volume(shape, spec.fov, max_voxels=budget),
             TilePlan(shape, spec.fov, (cube,) * 3)]
    warms = [WarmModel(spec, plan.input_tile) for plan in plans]
    volume = np.random.default_rng(seed).standard_normal(shape)
    try:
        timings = time_interleaved(
            {label: functools.partial(warm.run, volume, plan)
             for label, warm, plan in zip(("planner", "cube"), warms,
                                          plans)}, repeats)
    finally:
        for warm in warms:
            warm.close()
    return (*plans, *(1e3 * t.median for t in timings.values()))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--edges", type=int, nargs="+",
                        default=[20, 24, 32, 40, 48, 56, 64, 72, 80])
    parser.add_argument("--budgets", type=int, nargs="+",
                        default=[46656, 2000])
    parser.add_argument("--models", nargs="+", default=list(MODELS),
                        choices=list(MODELS))
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    if args.repeats < 5:
        parser.error("--repeats must be >= 5")
    print("| model | edge | budget | planner tile | tiles | ms "
          "| cube | tiles | ms | ratio |")
    print("|---|---|---|---|---|---|---|---|---|---|")
    for name in args.models:
        spec = MODELS[name]
        for budget in args.budgets:
            for edge in args.edges:
                if edge < max(spec.fov):
                    continue
                point = sweep_point(spec, edge, budget, args.repeats,
                                    args.seed)
                if point is None:
                    continue
                new, old, new_ms, old_ms = point
                tile = "×".join(map(str, new.input_tile))
                print(f"| {name} | {edge} | {budget} | {tile} "
                      f"| {new.num_tiles} | {new_ms:.1f} "
                      f"| {old.input_tile[0]}³ | {old.num_tiles} "
                      f"| {old_ms:.1f} | {new_ms / old_ms:.2f} |",
                      flush=True)


if __name__ == "__main__":
    main()
