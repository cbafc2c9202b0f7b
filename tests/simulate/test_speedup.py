"""Speedup-sweep (Figs 5–7) tests — shape properties of the curves."""

import pytest

from repro import reporting
from repro.simulate import (
    PAPER_WIDTHS,
    default_thread_counts,
    get_machine,
    max_speedup_vs_width,
    paper_graph_2d,
    paper_graph_3d,
    paper_task_graph,
)


def fig5_curves(machine_key, widths):
    """``reporting.figure5`` parsed back: {width: {threads: speedup}}."""
    header, rows = reporting.figure5(machine_key, 3, widths=widths)
    threads = [int(h.split("=")[1]) for h in header[1:]]
    return {int(row[0]): dict(zip(threads, map(float, row[1:])))
            for row in rows}


class TestPaperNetworks:
    def test_3d_output_patch_12(self):
        g = paper_graph_3d(width=2)
        out = g.output_nodes[0]
        assert out.shape == (12, 12, 12)

    def test_3d_input_is_37(self):
        g = paper_graph_3d(width=2)
        assert g.input_nodes[0].shape == (37, 37, 37)

    def test_2d_output_patch_48(self):
        g = paper_graph_2d(width=2)
        assert g.output_nodes[0].shape == (1, 48, 48)

    def test_3d_spec_structure(self):
        """CTMCTMCTCT: 4 conv layers, 4 transfer, 2 max-filter."""
        g = paper_graph_3d(width=3)
        kinds = {}
        for e in g.edges.values():
            kinds[e.kind] = kinds.get(e.kind, 0) + 1
        assert kinds["conv"] == 3 + 3 * 9
        assert kinds["filter"] == 6
        assert kinds["transfer"] == 12

    def test_2d_uses_fft_3d_uses_direct(self):
        tg2 = paper_task_graph(2, 2)
        tg3 = paper_task_graph(3, 2)
        assert any(n.startswith("prod_fwd") for n in tg2.names)
        assert not any(n.startswith("prod_fwd") for n in tg3.names)

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            paper_task_graph(4, 2)


class TestSpeedupCurves:
    @pytest.fixture(scope="class")
    def xeon18(self):
        return fig5_curves("xeon-18", (5, 20, 60))

    def test_linear_ramp_to_cores(self, xeon18):
        """Fig 5: 'speedup increases linearly until the number of
        worker threads equals the number of cores.'"""
        curve = xeon18[20]
        assert curve[9] > 0.85 * 9
        assert curve[18] > 0.85 * 18

    def test_slower_ramp_beyond_cores(self, xeon18):
        curve = xeon18[20]
        gain_smt = curve[36] - curve[18]
        assert 0 < gain_smt < 18  # positive but far sublinear

    @pytest.mark.parametrize("machine_key", ["xeon-18", "xeon-phi"])
    def test_fig5_panel_shape(self, machine_key, xeon18):
        """A whole panel: the widest net ramps near-linearly to the
        core count, gains more slowly through the hardware threads,
        and does at least as well there as the narrowest."""
        m = get_machine(machine_key)
        curves = (xeon18 if machine_key == "xeon-18"
                  else fig5_curves(machine_key, (5, 60)))
        wide, narrow = curves[60], curves[5]
        assert wide[m.cores] > 0.8 * m.cores
        assert 0 < wide[m.threads] - wide[m.cores] < m.threads - m.cores
        assert wide[m.threads] >= narrow[m.threads]

    def test_wider_networks_reach_higher_speedup(self):
        m = get_machine("xeon-40")
        rows = dict(max_speedup_vs_width(3, [5, 40], m))
        assert rows[40] > rows[5]

    def test_phi_needs_width_80(self):
        """Fig 7: the manycore CPU needs width >= 80 to approach its
        ceiling."""
        m = get_machine("xeon-phi")
        rows = dict(max_speedup_vs_width(3, [10, 80], m))
        assert rows[80] > 1.5 * rows[10]
        assert rows[80] > 80  # 'over 90x' territory at high widths

    def test_default_thread_counts_cover_regimes(self):
        m = get_machine("xeon-18")
        counts = default_thread_counts(m)
        assert 1 in counts and m.cores in counts and m.threads in counts
        assert counts == sorted(counts)

    def test_sweep_runner(self):
        curves = fig5_curves("xeon-8", [5, 10])
        assert sorted(curves) == [5, 10]
        assert all(s > 0 for curve in curves.values()
                   for s in curve.values())

    def test_paper_widths_constant(self):
        assert PAPER_WIDTHS[0] == 5 and PAPER_WIDTHS[-1] == 120


class TestHeadlineClaims:
    """The abstract's numbers and Section VIII's width thresholds, on
    the simulated Table V machines (``repro figure 6|7``)."""

    def test_phi_over_90x_headline(self):
        """'ZNN can attain over 90x speedup on a many-core CPU (Xeon
        Phi Knights Corner)' — for sufficiently wide networks."""
        _, rows = reporting.figure6_7(3, widths=(80,),
                                      machine_keys=("xeon-phi",))
        assert float(rows[0][1]) > 90.0

    def test_multicore_speedup_roughly_core_count(self):
        """'speedup roughly equal to the number of physical cores' on
        the multicore Xeons."""
        keys = ("xeon-8", "xeon-18", "xeon-40")
        _, rows = reporting.figure6_7(3, widths=(40,), machine_keys=keys)
        for key, row in zip(keys, rows):
            cores = get_machine(key).cores
            assert cores * 0.85 < float(row[1]) < cores * 1.6

    def test_multicore_saturates_by_width_30(self):
        """Fig 6: multicore CPUs are near their ceiling by width 30."""
        machine = get_machine("xeon-8")
        speedups = dict(max_speedup_vs_width(2, (5, 30), machine))
        assert speedups[30] > 0.85 * machine.max_speedup()

    @pytest.mark.parametrize("dims,machine_key", [
        (2, "xeon-8"), (2, "xeon-phi"), (3, "xeon-18"), (3, "xeon-phi")])
    def test_max_speedup_curve_shape(self, dims, machine_key):
        """Figs 6 and 7: (nearly) monotone in width, ending between
        75 % and 100 % of the machine's modelled ceiling."""
        machine = get_machine(machine_key)
        widths = (5, 10, 20, 40)
        values = [s for _, s in
                  max_speedup_vs_width(dims, widths, machine)]
        assert all(a <= b * 1.02 for a, b in zip(values, values[1:]))
        ceiling = machine.max_speedup()
        assert 0.75 * ceiling < values[-1] <= ceiling * 1.001
