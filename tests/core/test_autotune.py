"""Autotuner tests (Section IV).

Timing-based *selections* run under the ``analytic_clock`` fixture: the
ruler's clock and the timed pass triples are monkeypatched with the
paper's analytic FLOP counts priced at a fixed rate, so which mode wins
is a deterministic function of shapes — not of host load, turbo states
or CI noise.  The real benchmarks keep only smoke coverage (positive,
well-formed).
"""

import pytest

from repro.core import (
    autotune_graph,
    autotune_layer,
    crossover_kernel_size,
    layer_crossover_kernel_size,
)
from repro.core import Network
from repro.graph import build_layered_network
from repro.pram import conv_layer_costs_direct, conv_layer_costs_fft
from repro.pram.costs import (
    direct_conv_task_cost,
    fft_cost,
    pointwise_product_cost,
)
from repro.tensor import FftConvPlan
from repro.tensor.backends import conv_backend, pass_triple
from repro.utils.timing import time_interleaved


def analytic_seconds(name, image_shape, kernel_shape, sparsity=1):
    """Each backend's work mix — three direct convolutions vs. six
    transforms plus three spectral products — priced at 1 GFLOP/s."""
    if name == "direct":
        return 3e-9 * direct_conv_task_cost(image_shape, kernel_shape,
                                            sparsity)
    return 1e-9 * (6 * fft_cost(image_shape)
                   + 3 * pointwise_product_cost(image_shape))


@pytest.fixture
def analytic_clock(monkeypatch, fake_clock):
    """Replace the benchmarks with a deterministic analytic 'clock'.

    ``autotune_layer`` (and through it ``autotune_graph`` and the
    crossover sweeps) builds every registered backend's pass triple
    through the module global ``pass_triple`` and times it with
    ``repro.utils.timing``, whose clock ``fake_clock`` replaces.  The
    fake triples advance that clock by :func:`analytic_seconds`, so
    every timing-based selection is a function of shapes.  Returns a
    call counter so tests can assert the per-layer-group memoization.
    """
    import repro.core.autotune as autotune_module

    calls = {"direct": 0, "fft": 0}

    def fake_pass_triple(name, image_shape, kernel_shape, sparsity=1):
        calls[name] += 1
        return fake_clock.takes(analytic_seconds(
            name, image_shape, kernel_shape, sparsity))

    monkeypatch.setattr(autotune_module, "pass_triple", fake_pass_triple)
    return calls


def timed_once(name, image_shape, kernel_shape):
    """Median seconds of one round of *name*'s real pass triple."""
    return time_interleaved(
        {name: pass_triple(name, image_shape, kernel_shape)}, 1)[name].median


class TestTiming:
    def test_times_positive(self):
        assert timed_once("direct", (8, 8, 8), 2) > 0
        assert timed_once("fft", (8, 8, 8), 2) > 0

    def test_autotune_layer_returns_mode_and_times(self):
        mode, t_d, t_f = autotune_layer((8, 8, 8), 2, repeats=1)
        assert mode in ("direct", "fft")
        assert t_d > 0 and t_f > 0


class TestAnalyticSelection:
    def test_fft_wins_for_big_kernels(self, analytic_clock):
        mode, t_d, t_f = autotune_layer((32, 32, 32), 7)
        assert mode == "fft"
        assert t_f < t_d

    def test_direct_wins_for_small_kernels(self, analytic_clock):
        mode, t_d, t_f = autotune_layer((16, 16, 16), 2)
        assert mode == "direct"
        assert t_d < t_f

    def test_crossover_is_deterministic(self, analytic_clock):
        assert crossover_kernel_size((32, 32, 32),
                                     range(2, 10)) == 7

    def test_tolerance_breaks_ties_toward_direct(self, analytic_clock,
                                                 monkeypatch, fake_clock):
        import repro.core.autotune as autotune_module

        # Make FFT barely faster: inside the 5% tolerance band the
        # tuner must still choose direct (no spectra bookkeeping).
        analytic = autotune_module.pass_triple
        t_direct = analytic_seconds("direct", (16, 16, 16), 3)
        monkeypatch.setattr(
            autotune_module, "pass_triple",
            lambda name, *a, **k: fake_clock.takes(t_direct * 0.99)
            if name == "fft" else analytic(name, *a, **k))
        mode, _, _ = autotune_layer((16, 16, 16), 3)
        assert mode == "direct"

    def test_a_failing_backend_is_timed_at_inf(self, analytic_clock,
                                               monkeypatch):
        import repro.core.autotune as autotune_module

        def broken():
            raise RuntimeError("backend broken")

        analytic = autotune_module.pass_triple
        monkeypatch.setattr(
            autotune_module, "pass_triple",
            lambda name, *a, **k: broken if name == "fft"
            else analytic(name, *a, **k))
        mode, t_d, t_f = autotune_layer((32, 32, 32), 7)
        assert (mode, t_f) == ("direct", float("inf")) and t_d > 0
        # The fallback has nothing to degrade to: its failure surfaces.
        monkeypatch.setattr(autotune_module, "pass_triple",
                            lambda *a, **k: broken)
        with pytest.raises(RuntimeError, match="backend broken"):
            autotune_layer((32, 32, 32), 7)


class TestAutotuneGraph:
    def test_one_mode_per_conv_edge(self, analytic_clock):
        g = build_layered_network("CTC", width=2, kernel=2)
        g.propagate_shapes(10)
        modes = autotune_graph(g)
        conv_names = {e.name for e in g.edges.values() if e.kind == "conv"}
        assert set(modes) == conv_names
        assert set(modes.values()) <= {"direct", "fft"}

    def test_same_layer_same_mode(self, analytic_clock):
        g = build_layered_network("CTC", width=3, kernel=2)
        g.propagate_shapes(10)
        modes = autotune_graph(g)
        layer2 = {m for n, m in modes.items() if n.startswith("conv_L3")}
        assert len(layer2) == 1

    def test_one_measurement_per_layer_group(self, analytic_clock):
        # CTC has two conv layers (distinct shapes): exactly two
        # measurements of each benchmark, however wide the layers are.
        g = build_layered_network("CTC", width=3, kernel=2)
        g.propagate_shapes(10)
        autotune_graph(g)
        assert analytic_clock == {"direct": 2, "fft": 2}

    def test_requires_shapes(self):
        g = build_layered_network("CT", width=1, kernel=2)
        with pytest.raises(ValueError):
            autotune_graph(g)


class TestFastSizes:
    def test_tuner_times_the_plan_the_edge_runs(self, monkeypatch,
                                                fake_clock):
        """``Network(conv_mode="auto")`` on an awkward (prime) input:
        the tuner is handed the plan the edge is then built with, a
        transform at the image size."""
        import repro.core.autotune as autotune_module

        timed = {}

        def fake_pass_triple(name, image_shape, kernel_shape, sparsity=1):
            timed[name] = conv_backend(name).build(
                image_shape, kernel_shape, sparsity)
            return fake_clock.takes(1.0 if name == "direct"
                                    else 0.5)  # FFT wins

        monkeypatch.setattr(autotune_module, "pass_triple",
                            fake_pass_triple)
        graph = build_layered_network("CT", width=1, kernel=3)
        net = Network(graph, input_shape=(31, 31, 31), conv_mode="auto",
                      seed=0)
        (edge,) = [e for e in net.edges.values() if e.backend is not None]
        assert edge.mode == "fft"
        assert type(edge.plan) is type(timed["fft"]) is FftConvPlan
        assert vars(edge.plan) == vars(timed["fft"])
        assert edge.plan.transform_shape == (31, 31, 31)


class TestLayerCrossover:
    def test_layer_crossover_at_most_single_conv_crossover(self):
        """The paper's §IV claim: shared image/kernel FFTs move the
        crossover to smaller kernels for wide layers."""
        ks = range(2, 12)
        single = layer_crossover_kernel_size((32, 32, 32), ks, 1, 1)
        wide = layer_crossover_kernel_size((32, 32, 32), ks, 16, 16)
        assert wide is not None
        if single is not None:
            assert wide <= single

    def test_crossover_non_increasing_in_width(self):
        ks = range(2, 12)
        crossovers = [layer_crossover_kernel_size((32, 32, 32), ks, f, f)
                      or max(ks) + 1 for f in (1, 2, 4, 8, 16, 64)]
        assert crossovers == sorted(crossovers, reverse=True)
        assert crossovers[-1] < crossovers[0]

    def test_model_consistency(self):
        """At the crossover kernel the FFT model is indeed cheaper."""
        k = layer_crossover_kernel_size((32, 32, 32), range(2, 12), 8, 8)
        assert k is not None
        direct = conv_layer_costs_direct(8, 8, 32, k).total
        fft = conv_layer_costs_fft(8, 8, 32).total
        assert fft < direct

    def test_none_when_direct_always_wins(self):
        # kernel 1 or 2 on a big image with tiny width: direct is cheap
        k = layer_crossover_kernel_size((64, 64, 64), [1], 1, 1)
        assert k is None
