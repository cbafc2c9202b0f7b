"""The conv-backend contract (docs/algorithms.md "Adding a conv
backend"), run over every entry of ``repro.tensor.backends.registry``.

A backend's three passes equal the direct reference to 1e-10 on drawn
shapes, kernels and sparsities (padded plans included); its per-pass
cost annotation is the Table II count; and its determinism label is
what ``run_plan`` actually delivers — ``tiled-bitwise`` stitches to the
whole-volume pass bit for bit, ``run-bitwise`` repeats itself bit for
bit.  The seam's own rules (name check, choice rule) and the single
fallback site in ``ConvEdge._run`` — one case per pass, each with a
spectral-domain neighbour — are pinned here too, and so is the claim
that a third backend is one class plus one registry entry.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.core import SGD, Network
from repro.core.tiling import run_plan
from repro.graph import build_layered_network
from repro.observability import MetricsRegistry, set_registry
from repro.pram.costs import (
    direct_conv_task_cost,
    fft_cost,
    pointwise_product_cost,
)
from repro.resilience import FaultPlan, clear_plan, install_plan
from repro.serving import ModelSpec, WarmModel
from repro.tensor import (
    conv_backward_input,
    conv_kernel_gradient,
    correlate_valid,
)
from repro.core.autotune import autotune_layer
from repro.tensor.backends import (
    FALLBACK,
    choose,
    conv_backend,
    pass_triple,
    registry,
)
from repro.tensor.conv_direct import DirectPlan
from repro.utils.timing import time_interleaved

#: Table II FLOPs of one pass of one edge at transform shape T.
TABLE_II = {
    "direct": lambda n, k, s, T: direct_conv_task_cost(n, k, s),
    "fft": lambda n, k, s, T: fft_cost(T) + pointwise_product_cost(T),
}

backends = pytest.mark.parametrize("backend", list(registry.values()),
                                   ids=list(registry))
shape3 = st.tuples(*[st.integers(4, 10)] * 3)
kernel3 = st.tuples(*[st.integers(1, 3)] * 3)


def check_passes(backend, n, k, s, seed):
    """The three passes of *backend*'s plan against the direct
    reference, spatial and (if it can) spectral."""
    rng = np.random.default_rng(seed)
    img, ker = rng.standard_normal(n), rng.standard_normal(k)
    out = correlate_valid(img, ker, s)
    grad = rng.standard_normal(out.shape)
    plan = backend.build(n, k, s)
    assert isinstance(plan, backend)
    np.testing.assert_allclose(plan.forward(img, ker), out, atol=1e-10)
    made = []  # forward's result comes from its alloc

    def alloc(shape, dtype=float):
        made.append(np.empty(shape, dtype))
        return made[-1]

    from_alloc = plan.forward(img, ker, alloc=alloc)
    assert from_alloc.tobytes() == plan.forward(img, ker).tobytes()
    assert any(np.shares_memory(from_alloc, m) for m in made)
    np.testing.assert_allclose(plan.backward(grad, ker),
                               conv_backward_input(grad, ker, s), atol=1e-10)
    captured = plan.capture_update(img, grad)
    for kwargs in ({}, {"captured": captured}):
        np.testing.assert_allclose(
            plan.update(img, grad, **kwargs),
            conv_kernel_gradient(img, grad, s), atol=1e-10)
    if backend.spectral:  # the half-spectrum a spectral node would sum
        np.testing.assert_allclose(
            plan.finalize_forward(plan.forward(img, ker, spectral=True)),
            out, atol=1e-10)
        np.testing.assert_allclose(
            plan.finalize_backward(plan.backward(grad, ker, spectral=True)),
            conv_backward_input(grad, ker, s), atol=1e-10)


@backends
@given(n=shape3, k=kernel3, s=st.integers(1, 4), seed=st.integers(0, 999))
@settings(max_examples=40, deadline=None)
def test_passes_match_direct_reference(backend, n, k, s, seed):
    assume(all((kd - 1) * s + 1 <= nd for kd, nd in zip(k, n)))
    check_passes(backend, n, k, s, seed)


def check_pass_cost(backend, table_ii, n, k, s):
    plan = backend.build(n, k, s)
    T = plan.transform_shape
    flops = plan.pass_cost()["flops"]
    assert flops == table_ii(n, k, s, T)
    # ... which is also a 1x1 layer's update row of the layer table.
    assert flops == backend.layer_flops(1, 1, T, k, s, passes=("update",))


PASS_COST_CASES = [((8, 9, 10), (3, 2, 2), 1), ((11, 11, 11), 3, 2)]


@backends
@pytest.mark.parametrize("n,k,s", PASS_COST_CASES)
def test_pass_cost_is_the_table_ii_count(backend, n, k, s):
    check_pass_cost(backend, TABLE_II[backend.name], n, k, s)


def tiled_and_whole(mode):
    """A tiny net served by ``run_plan`` over 9^3 tiles, and the same
    net's single whole-volume pass."""
    spec = ModelSpec("contract", "CTPCT", conv_mode=mode, seed=5,
                     builder_kwargs=dict(width=[2, 1], kernel=2, window=2,
                                         transfer="tanh"))
    volume = np.random.default_rng(7).standard_normal((14, 14, 14))

    def tiled():
        warm = WarmModel(spec, (9, 9, 9))
        try:
            return run_plan(warm.network, volume, warm.plan(volume.shape))
        finally:
            warm.close()

    whole = WarmModel(spec, volume.shape)
    try:
        single = whole.network.forward(volume)[
            whole.network.output_nodes[0].name]
    finally:
        whole.close()
    return tiled(), tiled(), single


def check_determinism_label(backend):
    first, second, single = tiled_and_whole(backend.name)
    assert np.array_equal(first, second)  # both labels promise this
    if backend.determinism == "tiled-bitwise":
        assert np.array_equal(first, single)
    else:
        assert backend.determinism == "run-bitwise"
        np.testing.assert_allclose(first, single, atol=1e-10)
    return first


@backends
def test_determinism_label_holds_through_run_plan(backend):
    check_determinism_label(backend)


class TestSeamRules:
    def test_one_name_check(self):
        assert conv_backend("fft") is registry["fft"]
        for bad in ("winograd", "auto", None):
            with pytest.raises(ValueError,
                               match=r"conv modes must be direct\|fft"):
                conv_backend(bad)

    def test_fallback_is_first_registered(self):
        assert FALLBACK is next(iter(registry.values()))
        assert FALLBACK.name == "direct"

    def test_choice_rule(self):
        assert choose({"direct": 1.0, "fft": 0.5}) == "fft"
        assert choose({"direct": 1.0, "fft": 1.0}) == "direct"  # tie
        assert choose({"direct": 1.0, "fft": 0.96}, 0.05) == "direct"
        assert choose({"direct": 1.0, "fft": 0.94}, 0.05) == "fft"
        assert choose({"direct": 1.0, "fft": float("inf")}) == "direct"


# -- the one fallback site --------------------------------------------------

@pytest.fixture
def metrics():
    fresh = MetricsRegistry()
    previous = set_registry(fresh)
    clear_plan()
    yield fresh
    clear_plan()
    set_registry(previous)


def _train_and_infer(conv_mode, x):
    """One training round plus a forward pass on the CTC width-2 net:
    every conv edge has a spectral-domain neighbour on both sides."""
    graph = build_layered_network("CTC", width=2, kernel=2, transfer="tanh")
    net = Network(graph, input_shape=x.shape, seed=3, conv_mode=conv_mode,
                  optimizer=SGD(learning_rate=0.01, momentum=0.9))
    net.train_step(x, {n.name: np.zeros(n.shape) for n in net.output_nodes})
    net.synchronize()
    return net, net.forward(x), net.kernels()


def _first_fft_check_of(name, run):
    """1-based position, among a healthy run's ``fft``-family fault
    checks, of the first one made by product *name*."""
    plan = FaultPlan.from_string("fail:nothing:1")
    seen, check = [], plan.check

    def recording_check(family, check_name=""):
        if family == "fft":
            seen.append(check_name)
        check(family, check_name)

    plan.check = recording_check
    install_plan(plan)
    try:
        run()
    finally:
        clear_plan()
    return seen.index(name) + 1


@pytest.mark.parametrize("op", ["forward", "backward", "update"])
def test_fallback_during_each_pass(op, metrics):
    x = np.random.default_rng(11).standard_normal((8, 8, 8))
    _, ref_out, ref_kernels = _train_and_infer("direct", x)
    target = f"fft:{op}_product"
    nth = _first_fft_check_of(target, lambda: _train_and_infer("fft", x))

    plan = install_plan(FaultPlan.from_string(f"fail:fft:{nth}"))
    with pytest.warns(RuntimeWarning, match="falling back to direct"):
        net, out, kernels = _train_and_infer("fft", x)
    assert [e.name for e in plan.events] == [target]
    assert metrics.snapshot()["resilience.fft_fallback"] == 1
    (name,) = [n for n, e in net.edges.items()
               if e.backend is not None and not e.fft_ok]
    edge = net.edges[name]
    assert edge.mode == "fft" and edge.effective_mode == "direct"
    assert net.conv_modes[name] == "direct"
    # Its neighbours kept summing spectra, so the passes it ran after
    # degrading (this round's and the final forward) were lifted.
    assert edge.dst.forward_plan.spectral and edge.src.backward_plan.spectral
    for node in ref_out:
        np.testing.assert_allclose(out[node], ref_out[node], atol=1e-10)
    for kernel in ref_kernels:
        np.testing.assert_allclose(kernels[kernel], ref_kernels[kernel],
                                   atol=1e-10)


# -- a third backend is one class plus one registry entry -------------------

class Tagged(DirectPlan):
    """A test-local backend: the direct kernels under their own name,
    counting the passes its plans run."""

    name = "tagged"
    runs: list = []

    def forward(self, image, kernel, memo=None, spectral=False,
                alloc=np.empty):
        Tagged.runs.append("forward")
        return super().forward(image, kernel, memo, spectral, alloc)

    def update(self, image, grad, memo=None, captured=None):
        Tagged.runs.append("update")
        return super().update(image, grad, memo, captured)


def test_a_third_backend_is_one_class_and_one_entry(monkeypatch):
    monkeypatch.setitem(registry, Tagged.name, Tagged)
    monkeypatch.setattr(Tagged, "runs", [])
    assert conv_backend("tagged") is Tagged

    # The contract, as for the registered two.
    check_passes(Tagged, (7, 8, 9), (2, 3, 2), 2, seed=1)
    check_pass_cost(Tagged, TABLE_II["direct"], *PASS_COST_CASES[0])

    # ConvEdge and a Network training round: bitwise the direct network.
    x = np.random.default_rng(11).standard_normal((8, 8, 8))
    _, ref_out, ref_kernels = _train_and_infer("direct", x)
    net, out, kernels = _train_and_infer("tagged", x)
    conv = [e for e in net.edges.values() if e.backend is not None]
    assert conv and all(type(e.plan) is Tagged and e.fft_ok for e in conv)
    assert set(net.conv_modes.values()) == {"tagged"}
    assert {"forward", "update"} <= set(Tagged.runs)
    for name in ref_out:
        assert out[name].tobytes() == ref_out[name].tobytes()
    for name in ref_kernels:
        assert kernels[name].tobytes() == ref_kernels[name].tobytes()

    # The timer and the autotuner price it beside the others.
    run = pass_triple("tagged", 8, 3)
    assert time_interleaved({"tagged": run}, 1)["tagged"].median > 0
    mode, *seconds = autotune_layer(8, 3, repeats=1)
    assert mode in registry and len(seconds) == len(registry) == 3

    # Tiled serving: its label holds, and it serves the direct bits.
    served = check_determinism_label(Tagged)
    assert served.tobytes() == tiled_and_whole("direct")[0].tobytes()
