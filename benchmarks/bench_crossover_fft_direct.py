"""Section IV + ZNNi part (a) — the FFT/direct crossover, measured,
modelled, and exploited per layer.

The paper's claim: the crossover occurs at *smaller* kernel sizes for a
ConvNet layer than for a single convolution, because image and kernel
FFTs are shared across the layer's f*f' edges.  We print the layer-level
model crossover over (image size, width) — non-increasing along both —
and measure the single-conv wall-clock crossover on this host.

ZNNi (arXiv:1606.05688) turns that observation into a serving plan:
pick the winning backend *per conv layer* from a measured cost model
and sweep patch sizes for throughput.  The specialization
benchmark profiles both single-mode variants at steady state, plans
from the resulting cost model, and asserts the specialized plan's
measured throughput is no worse than the best single-mode plan (within
a noise margin).  Everything lands in ``BENCH_znni.json``.
"""

import functools

import numpy as np
import pytest

from repro.core import autotune_layer, layer_crossover_kernel_size
from repro.observability import Tracer, cost_model_from_spans, set_tracer
from repro.serving import ModelRegistry, ModelSpec, plan_specialization
from repro.utils.timing import time_interleaved

BENCH = "znni"
KS = tuple(range(2, 12))

#: The crossover-surface grid (image edge x layer width); a full run
#: adds the 64^3 row and the 64^3 serving volume.
SURFACE_SIZES = (16, 24, 32, 48)
SURFACE_WIDTHS = (1, 2, 4, 8)

#: Layered example specs for the specialized-vs-single-mode comparison.
#: ``mixed`` uses per-layer kernels (a Python list survives only in
#: direct builder_kwargs — spec files parse "7 3" as one shape), so its
#: two conv layers sit on opposite sides of the crossover.
SERVING_SPECS = {
    "ctct-k3": ModelSpec(
        name="ctct-k3", spec="CTCT", conv_mode="direct",
        builder_kwargs={"width": 2, "kernel": 3, "transfer": "tanh"}),
    "ctct-k7-k3": ModelSpec(
        name="ctct-k7-k3", spec="CTCT", conv_mode="direct",
        builder_kwargs={"width": 2, "kernel": [7, 3], "transfer": "tanh"}),
}
#: Specialized must reach this fraction of the best single-mode
#: throughput — the planner picks from measured data, so losses beyond
#: run-to-run noise mean the cost model mispriced a layer.
NOISE_FLOOR = 0.85


def test_crossover_surface(report):
    """The per-layer crossover surface over (image size, width).

    Both axes push the same way: wider layers amortise shared
    image/kernel transforms over more products, larger images raise the
    direct cost faster than the n log n transform cost — so the
    crossover kernel is non-increasing along each axis (None = no
    crossover inside the sweep, treated as past its end).
    """
    sizes = SURFACE_SIZES + ((64,) if report.full else ())
    surface = []
    rows = []
    for n in sizes:
        row = []
        for f in SURFACE_WIDTHS:
            k = layer_crossover_kernel_size((n, n, n), KS, f, f)
            row.append(k)
            surface.append({"image": n, "width": f, "crossover": k})
        rows.append([f"{n}^3"] + [k if k is not None else f"> {max(KS)}"
                                  for k in row])
    report.table("crossover-kernel surface (rows image, cols width f=f')",
                 [""] + [str(f) for f in SURFACE_WIDTHS], rows)
    sentinel = max(KS) + 1
    grid = {(c["image"], c["width"]):
            c["crossover"] if c["crossover"] is not None else sentinel
            for c in surface}
    for n in sizes:
        ks = [grid[(n, f)] for f in SURFACE_WIDTHS]
        assert all(a >= b for a, b in zip(ks, ks[1:])), (n, ks)
    for f in SURFACE_WIDTHS:
        ks = [grid[(n, f)] for n in sizes]
        assert all(a >= b for a, b in zip(ks, ks[1:])), (f, ks)
    report.emit("crossover_surface", surface)


@pytest.mark.parametrize("name", sorted(SERVING_SPECS))
@pytest.mark.parametrize("edge", [32, 64], ids=lambda n: f"{n}^3")
def test_specialized_vs_single_mode(name, edge, report):
    if edge == 64 and not report.full:
        pytest.skip("64^3 volume only with ZNN_BENCH_FULL=1")
    volume_shape = (edge,) * 3
    spec = SERVING_SPECS[name]
    volume = np.random.default_rng(7).standard_normal(volume_shape)
    registry = ModelRegistry(max_models=8)
    try:
        registry.register(spec)
        analytic = plan_specialization(spec, volume_shape)
        edges = [e for e, _ in analytic.conv_modes]
        maps = {mode: {e: mode for e in edges} for mode in ("direct", "fft")}
        single = {mode: registry.warm(name, analytic.input_tile,
                                      conv_modes=modes)
                  for mode, modes in maps.items()}
        # Profile both single-mode variants at steady state (first run
        # of each pays cache misses and is kept out of the model).
        for warm in single.values():
            warm.run(volume)
        tracer = Tracer(enabled=True)
        previous = set_tracer(tracer)
        try:
            for warm in single.values():
                warm.run(volume)
                warm.run(volume)
        finally:
            set_tracer(previous)
        cost_model = cost_model_from_spans(tracer.spans(), tracer.dropped)
        plan = plan_specialization(spec, volume_shape,
                                   cost_model=cost_model)
        # ModelRegistry.warm returns one object for equal mode maps: a
        # plan equal to a single mode's map is timed once, as that mode.
        alias = next((m for m in maps if maps[m] == plan.conv_mode_map), None)
        if alias is None:
            maps["specialized"] = plan.conv_mode_map
        warms = {label: registry.warm(name, plan.input_tile, conv_modes=modes)
                 for label, modes in maps.items()}
        timings = time_interleaved({label: functools.partial(
            warm.run, volume) for label, warm in warms.items()}, 3)
        outputs = {label: warm.run(volume) for label, warm in warms.items()}
        results = {label: outputs["direct"].size / t.median
                   for label, t in timings.items()}
        results["specialized"] = results[alias or "specialized"]
        report.table(
            f"{name} at {volume_shape[0]}^3: measured Mvox/s, median of 3 "
            f"interleaved rounds (plan modes {dict(plan.layer_modes)}, "
            f"timed as {alias or 'specialized'})",
            ["variant", "Mvox/s", "A/A spread"],
            [[label, f"{results[label] / 1e6:.4g}", f"{t.spread:+.1%}"]
             for label, t in timings.items()])
        ratio = results["specialized"] / max(results["direct"], results["fft"])
        report.emit(f"serving:{name}:{volume_shape[0]}", {
            "volume": list(volume_shape),
            "input_tile": list(plan.input_tile),
            "layer_modes": {str(i): m for i, m in plan.layer_modes},
            "predicted_voxels_per_second": plan.predicted_voxels_per_second,
            "measured_voxels_per_second": {
                k: v for k, v in sorted(results.items())},
            "aliases": alias,
            "specialized_over_best_single": ratio,
            "aa_spread": {k: t.spread for k, t in sorted(timings.items())},
            "noise_floor": NOISE_FLOOR,
        })
        # Specialization never loses: the planner chose from measured
        # rates, so up to noise it matches (mixed plans: beats) the
        # best single-mode plan.
        assert ratio >= NOISE_FLOOR, (name, volume_shape, results)
        # And it serves the same function: single-mode variants agree
        # with the specialized output to FFT/direct tolerance.
        np.testing.assert_allclose(outputs[alias or "specialized"],
                                   outputs["direct"],
                                   rtol=1e-9, atol=1e-11)
    finally:
        registry.close()


def test_measured_single_conv_crossover(report):
    image = (32, 32, 32)
    rows = []
    for kk in (2, 3, 5, 7):
        mode, t_d, t_f = autotune_layer(image, kk, repeats=2)
        rows.append([f"{kk}^3", f"{t_d:.3g}", f"{t_f:.3g}", mode])
    report.table("measured single-convolution times on this host",
                 ["kernel", "direct s", "fft s", "chosen"], rows)
    # numpy's strided direct conv loses to FFT quickly; the crossover
    # must exist within the sweep on any host.
    assert any(mode != "direct" for *_, mode in rows)

