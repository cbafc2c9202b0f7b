"""Experiment reporting: table rendering and the paper's generators.

The one place a paper table or figure is computed: ``repro figure``,
``examples/reproduce_paper.py`` and the tier-1 shape claims all call
the ``tableN`` / ``figureN`` functions here, each of which returns
(header, rows) ready for :func:`render_table`.  ``full=True`` sweeps
the paper's full grid where the default is a trimmed one.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

__all__ = [
    "render_table",
    "ascii_chart",
    "metrics_table",
    "table1",
    "table2",
    "table3",
    "figure4",
    "figure5",
    "figure6_7",
    "figure8",
    "figure9",
    "table5",
]

Table = Tuple[List[str], List[List[str]]]


def render_table(title: str, header: Sequence, rows: Sequence[Sequence],
                 ) -> str:
    """Fixed-width text table."""
    header = [str(h) for h in header]
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"== {title} =="]
    lines.append("  ".join(h.rjust(w) for h, w in zip(header, widths)))
    lines.append("-" * (sum(widths) + 2 * (len(widths) - 1)))
    for row in rows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def metrics_table(snapshot: dict) -> Table:
    """A metrics-registry snapshot as (header, rows) for
    :func:`render_table`.

    Counters and gauges render as plain numbers; histogram snapshots
    (dicts) as ``count / sum / mean / max`` summaries.
    """
    rows: List[List[str]] = []
    for name in sorted(snapshot):
        value = snapshot[name]
        if isinstance(value, dict):  # histogram snapshot
            vmax = value.get("max")
            rows.append([name, "histogram",
                         f"count={value.get('count', 0)} "
                         f"sum={value.get('sum', 0.0):.6g} "
                         f"mean={value.get('mean') or 0.0:.6g} "
                         f"max={f'{vmax:.6g}' if vmax is not None else '-'}"])
        elif isinstance(value, float):
            rows.append([name, "value", f"{value:.6g}"])
        else:
            rows.append([name, "value", str(value)])
    return ["metric", "kind", "value"], rows


def _fmt(value, digits: int = 4) -> str:
    if value is None:
        return "OOM"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def table1(f: int = 4, n: int = 32, window: int = 4) -> Table:
    """Table I: FLOPs of a pooling / filtering / transfer layer of *f*
    nodes on n^3 images (window k = p = *window*)."""
    from repro.pram import (filtering_layer_costs, pooling_layer_costs,
                            transfer_layer_costs)

    layers = (("pooling", pooling_layer_costs(f, n)),
              ("filtering", filtering_layer_costs(f, n, window)),
              ("transfer", transfer_layer_costs(f, n)))
    return (["layer", "forward", "backward", "update"],
            [[name, _fmt(c.forward), _fmt(c.backward), _fmt(c.update)]
             for name, c in layers])


def table2(f: int = 4, n: int = 24,
           kernels: Optional[Sequence[int]] = None,
           full: bool = False) -> Table:
    """Table II: total FLOPs of a fully connected f -> f conv layer,
    direct vs FFT vs FFT (memoized), per kernel size."""
    from repro.pram import conv_layer_costs_direct, conv_layer_costs_fft

    if kernels is None:
        kernels = (3, 5, 7, 9, 11) if full else (3, 5, 7)
    fft = conv_layer_costs_fft(f, f, n, memoized=False).total
    memo = conv_layer_costs_fft(f, f, n, memoized=True).total
    return (["kernel", "direct", "fft", "fft-memo", "memo/fft"],
            [[f"{k}^3", _fmt(conv_layer_costs_direct(f, f, n, k).total),
              _fmt(fft), _fmt(memo), _fmt(memo / fft, 3)]
             for k in kernels])


def table3(f: int = 8, n: int = 16, k: int = 5) -> Table:
    """Tables III & IV: per-layer T_inf (infinitely many processors)
    of an f -> f conv layer in each mode and of the non-conv layers."""
    from repro.pram import conv_layer_tinf, nonconv_layer_tinf

    times = [(f"conv {mode}", conv_layer_tinf(f, f, n, k, mode=mode))
             for mode in ("direct", "fft", "fft-memo")]
    times += [(kind, nonconv_layer_tinf(kind, n, 2))
              for kind in ("pool", "filter", "transfer")]
    return (["layer", "T_fwd_inf", "T_bwd_inf", "T_upd_inf"],
            [[name, _fmt(t.forward), _fmt(t.backward), _fmt(t.update)]
             for name, t in times])


def figure4(mode: str = "direct",
            widths: Sequence[int] = (5, 10, 20, 40, 60, 80, 100, 120),
            depth: int = 8, full: bool = False) -> Table:
    """Fig 4: theoretically achievable speedup vs width, one row per
    processor count at *depth* — or, with *full*, one per (P, depth)
    over the paper's depths 4-40 (its near-coincident lines)."""
    from repro.pram import (FIG4_DEPTHS, FIG4_PROCESSORS,
                            achievable_speedup_curve)

    header = ["P"] + [f"w={w}" for w in widths]
    rows = []
    for p in FIG4_PROCESSORS:
        for d in (FIG4_DEPTHS if full else (depth,)):
            curve = achievable_speedup_curve(p, widths, depth=d, mode=mode)
            rows.append([f"{p} d={d}" if full else str(p)]
                        + [_fmt(s) for s in curve])
    return header, rows


def figure5(machine_key: str = "xeon-18", dims: int = 3,
            widths: Optional[Sequence[int]] = None,
            full: bool = False) -> Table:
    """Fig 5: simulated speedup vs worker threads, one row per width
    (ascending)."""
    from repro.simulate import (PAPER_WIDTHS, default_thread_counts,
                                get_machine, paper_task_graph,
                                simulate_schedule)

    if widths is None:
        widths = PAPER_WIDTHS if full else (5, 20, 60)
    machine = get_machine(machine_key)
    threads = default_thread_counts(machine)
    header = ["width"] + [f"W={t}" for t in threads]
    rows = []
    for width in sorted(widths):
        tg = paper_task_graph(dims, width)
        rows.append([str(width)] + [
            _fmt(simulate_schedule(tg, machine, t).speedup)
            for t in threads])
    return header, rows


def figure6_7(dims: int,
              widths: Optional[Sequence[int]] = None,
              machine_keys: Sequence[str] = ("xeon-8", "xeon-18",
                                             "xeon-40", "xeon-phi"),
              full: bool = False) -> Table:
    """Fig 6 (dims=2) / Fig 7 (dims=3): max speedup vs width."""
    from repro.simulate import (PAPER_WIDTHS, get_machine,
                                max_speedup_vs_width)

    if widths is None:
        widths = PAPER_WIDTHS if full else (5, 10, 20, 40, 80)
    header = ["machine"] + [f"w={w}" for w in widths]
    rows = []
    for key in machine_keys:
        machine = get_machine(key)
        curve = dict(max_speedup_vs_width(dims, widths, machine))
        rows.append([key] + [_fmt(curve[w]) for w in widths])
    return header, rows


def figure8(outputs: Optional[Sequence[int]] = None,
            full: bool = False) -> Table:
    """Fig 8: ZNN vs GPU frameworks, 2D."""
    from repro.baselines import FIG8_OUTPUTS, fig8_comparison

    if outputs is None:
        outputs = FIG8_OUTPUTS if full else (1, 8, 64)
    systems = ["znn", "caffe", "caffe-cudnn", "theano"]
    header = ["kernel", "output"] + systems + ["winner"]
    rows = []
    for r in fig8_comparison(outputs=outputs):
        rows.append([f"{r.kernel_size}^2", f"{r.output_size}^2"]
                    + [_fmt(r.seconds.get(s)) for s in systems]
                    + [r.winner()])
    return header, rows


def figure9() -> Table:
    """Fig 9: ZNN vs Theano, 3D."""
    from repro.baselines import fig9_comparison

    header = ["kernel", "output", "theano", "znn", "winner"]
    rows = []
    for r in fig9_comparison():
        rows.append([f"{r.kernel_size}^3", f"{r.output_size}^3",
                     _fmt(r.seconds["theano"]), _fmt(r.seconds["znn"]),
                     r.winner()])
    return header, rows


def table5() -> Table:
    """Table V: benchmark machine catalog."""
    from repro.simulate import MACHINES

    header = ["key", "name", "cores", "threads", "GHz", "max speedup"]
    rows = [[key, m.name, str(m.cores), str(m.threads), str(m.ghz),
             _fmt(m.max_speedup())]
            for key, m in MACHINES.items()]
    return header, rows


def ascii_chart(series: dict, width: int = 64, height: int = 16,
                x_label: str = "", y_label: str = "") -> str:
    """Plot named (x, y) series as an ASCII chart.

    *series* maps a label to a list of ``(x, y)`` pairs.  Each series
    gets a distinct marker; axes are linearly scaled to the data.  Used
    by the CLI to sketch the paper's figures without a plotting stack.
    """
    markers = "*o+x#@%&"
    points = [(x, y) for pts in series.values() for x, y in pts]
    if not points:
        return "(no data)"
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    grid = [[" "] * width for _ in range(height)]
    for index, (label, pts) in enumerate(series.items()):
        marker = markers[index % len(markers)]
        for x, y in pts:
            col = int((x - x_lo) / x_span * (width - 1))
            row = height - 1 - int((y - y_lo) / y_span * (height - 1))
            grid[row][col] = marker

    lines = []
    for i, row in enumerate(grid):
        if i == 0:
            prefix = f"{y_hi:>8.4g} |"
        elif i == height - 1:
            prefix = f"{y_lo:>8.4g} |"
        else:
            prefix = " " * 8 + " |"
        lines.append(prefix + "".join(row))
    lines.append(" " * 10 + "-" * width)
    lines.append(" " * 10 + f"{x_lo:<10.4g}{x_label:^{max(width - 20, 0)}}"
                 f"{x_hi:>10.4g}")
    legend = "   ".join(f"{markers[i % len(markers)]} {label}"
                        for i, label in enumerate(series))
    lines.append(" " * 10 + legend)
    if y_label:
        lines.insert(0, f"  [{y_label}]")
    return "\n".join(lines)
