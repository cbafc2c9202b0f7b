"""Small tiles as one batched walk: ``run_plan`` stacks a request's
tiles below ``TWIN_MIN_VOXELS`` into one ``Network.forward``, and every
pass acts on the trailing three axes, so each stacked tile must come out
bit for bit as its own forward would.

The reference here is the tile-by-tile loop ``run_plan`` replaced: one
``network.forward`` per tile on the same twin.  The volumes carry a
shifted-back last tile, an exact-zero patch and a NaN — the cases where
the window maximum's winner fallback decides the sign of a zero or the
payload of a NaN, per tile.
"""

import numpy as np
import pytest

import repro.core.tiling as tiling
import repro.tensor.filtering as filtering
from repro.core import (CustomOp, Network, register_custom_op,
                        unregister_custom_op)
from repro.graph import ComputationGraph, build_layered_network
from repro.observability.tracing import Tracer, set_tracer
from repro.serving import ModelSpec, WarmModel, run_plan

#: CTPCT, kernel 2, window 2: fov 5, so a 9^3 tile writes 5^3 outputs.
SPEC = dict(width=[2, 1], kernel=2, window=2, transfer="tanh")
TILE = (9, 9, 9)


def spec(mode):
    return ModelSpec("batched", "CTPCT", conv_mode=mode, seed=5,
                     builder_kwargs=SPEC)


def volumes():
    """17 x 15 x 21: every axis ends on a shifted-back tile."""
    rng = np.random.default_rng(9)
    plain = rng.standard_normal((17, 15, 21))
    zeros = plain.copy()
    zeros[:6, :6, :6] = 0.0  # whole windows of exact zeros
    nan = zeros.copy()
    nan[12, 3, 16] = np.nan
    return {"plain": plain, "zeros": zeros, "nan": nan}


def tile_by_tile(network, volume, plan):
    """One forward per tile, stitched as ``run_plan`` stitches."""
    out = network.output_nodes[0].name
    t, o = plan.input_tile, plan.output_tile
    dense = np.empty(plan.dense_shape)
    for (z, y, x), _ in plan.tiles:
        block = np.ascontiguousarray(
            volume[z:z + t[0], y:y + t[1], x:x + t[2]])
        dense[z:z + o[0], y:y + o[1], x:x + o[2]] = network.forward(block)[out]
    return dense


def counting_forwards(monkeypatch, network):
    """Record the leading shape of every input ``network.forward`` gets."""
    seen, forward = [], network.forward

    def wrapper(inputs):
        seen.append(np.shape(inputs)[:-3])
        return forward(inputs)

    monkeypatch.setattr(network, "forward", wrapper)
    return seen


def mixed_modes():
    model = WarmModel(spec("direct"), TILE)
    edges = sorted(model.network.conv_modes)
    model.close()
    return {edge: ("fft", "direct")[i % 2] for i, edge in enumerate(edges)}


@pytest.fixture(params=["fft", "direct", "mixed"])
def warm(request):
    modes = mixed_modes() if request.param == "mixed" else None
    model = WarmModel(spec("fft" if modes else request.param), TILE,
                      conv_modes=modes)
    yield model
    model.close()


@pytest.mark.parametrize("name", list(volumes()))
def test_batched_run_plan_equals_tile_by_tile(warm, name, monkeypatch):
    volume = volumes()[name]
    plan = warm.plan(volume.shape)
    assert plan.num_tiles == 36 and plan.axis_starts[0] == (0, 5, 8)
    expected = tile_by_tile(warm.network, volume, plan)
    seen = counting_forwards(monkeypatch, warm.network)
    stitched = run_plan(warm.network, volume, plan)
    assert seen == [(36,)]  # one walk for the whole request
    assert stitched.tobytes() == expected.tobytes()  # NaN payload too


def test_zero_windows_take_the_per_tile_fallback(monkeypatch):
    """The zero patch really reaches the winner fallback, once per
    image of the stack whose values hold a zero."""
    model = WarmModel(spec("direct"), TILE)
    try:
        volume = volumes()["zeros"]
        plan = model.plan(volume.shape)
        expected = tile_by_tile(model.network, volume, plan)
        calls, window_max = [], filtering.window_max

        def spy(image, *args):
            calls.append(image.shape)
            return window_max(image, *args)

        monkeypatch.setattr(filtering, "window_max", spy)
        stitched = run_plan(model.network, volume, plan)
    finally:
        model.close()
    assert calls and all(len(shape) == 3 for shape in calls)
    assert stitched.tobytes() == expected.tobytes()


@pytest.mark.parametrize("mode", ["fft", "direct"])
def test_two_worker_twin(mode):
    """The task cascade carries stacks as the walk does."""
    model = WarmModel(spec(mode), TILE, num_workers=2)
    try:
        assert model.network.num_workers == 2
        for volume in volumes().values():
            plan = model.plan(volume.shape)
            assert (run_plan(model.network, volume, plan).tobytes()
                    == tile_by_tile(model.network, volume, plan).tobytes())
    finally:
        model.close()


def test_batch_size_rule(monkeypatch):
    """``TWIN_MIN_VOXELS // tile voxels`` tiles per forward, at least
    one; progress still fires once per tile, and each stack is one
    ``tile:<first>`` span holding the pass spans."""
    monkeypatch.setattr(tiling, "TWIN_MIN_VOXELS", 4 * 729 + 728)
    model = WarmModel(spec("fft"), TILE)
    tracer = Tracer(enabled=True, process="test")
    previous = set_tracer(tracer)
    try:
        volume = volumes()["plain"][:, :, :9]  # 3 x 3 x 1 tiles
        plan = model.plan(volume.shape)
        expected = tile_by_tile(model.network, volume, plan)
        tracer.clear()
        seen = counting_forwards(monkeypatch, model.network)
        progress = []
        stitched = run_plan(model.network, volume, plan,
                            lambda done, total: progress.append((done, total)))
    finally:
        set_tracer(previous)
        model.close()
    assert seen == [(4,), (4,), ()]  # a lone tile goes in as an image
    assert progress == [(i, 9) for i in range(1, 10)]
    assert stitched.tobytes() == expected.tobytes()
    spans = tracer.spans()
    tiles = {s.span_id: s for s in spans if s.category == "tile"}
    assert sorted((s.name, tuple(s.attrs["tiles"]))
                  for s in tiles.values()) == [
        ("tile:0", (0, 3)), ("tile:4", (4, 7)), ("tile:8", (8, 8))]
    children = [s for s in spans if s.parent_id in tiles]
    assert {s.attrs["op"] for s in children} == {"fwd", "sum"}


def test_large_tiles_run_one_at_a_time(monkeypatch):
    monkeypatch.setattr(tiling, "TWIN_MIN_VOXELS", 728)
    model = WarmModel(spec("direct"), TILE)
    try:
        volume = volumes()["plain"]
        seen = counting_forwards(monkeypatch, model.network)
        run_plan(model.network, volume, model.plan(volume.shape))
    finally:
        model.close()
    assert seen == [()] * 36


@pytest.mark.parametrize("mode", ["fft", "direct"])
def test_network_forward_on_a_stack(mode):
    """A stack of B inputs gives B outputs, each bitwise its own pass,
    through max-filtering and sparse (skip-kernel) convolutions."""
    graph = build_layered_network("CTMCTCT", width=[3, 2, 1], kernel=3,
                                  window=2, transfer="relu",
                                  skip_kernels=True)
    net = Network(graph, input_shape=(14, 14, 14), conv_mode=mode, seed=2)
    try:
        stack = np.random.default_rng(4).standard_normal((3, 14, 14, 14))
        stack[1, :8, :8, :8] = 0.0
        out = net.output_nodes[0].name
        batched = net.forward(stack)[out]
        singles = [net.forward(image)[out] for image in stack]
        assert batched.shape == (3,) + net.output_nodes[0].shape
        for got, want in zip(batched, singles):
            assert got.tobytes() == want.tobytes()
    finally:
        net.close()


def test_custom_op_sees_the_stack():
    """A custom edge gets the stack as its image and must keep it one:
    an op that drops the leading axis is refused."""
    ops = {"stack-square": lambda x, state: x * x,
           "stack-first": lambda x, state: x.reshape((-1,) + x.shape[-3:])[0]}
    for name, forward in ops.items():
        register_custom_op(CustomOp(name=name, forward=forward,
                                    backward=lambda g, x, y, state: g),
                           replace=True)
    try:
        nets = {}
        for name in ops:
            g = ComputationGraph()
            for node in ("in", "a", "out"):
                g.add_node(node)
            g.add_edge("c", "in", "a", "conv", kernel=2)
            g.add_edge("u", "a", "out", "custom", op=name)
            nets[name] = Network(g, input_shape=(6, 6, 6), seed=1)
        stack = np.random.default_rng(3).standard_normal((3, 6, 6, 6))
        net = nets["stack-square"]
        batched = net.forward(stack)["out"]
        for got, image in zip(batched, stack):
            assert got.tobytes() == net.forward(image)["out"].tobytes()
        with pytest.raises(ValueError, match="custom op 'stack-first'"):
            nets["stack-first"].forward(stack)
    finally:
        for name in ops:
            unregister_custom_op(name)
        for net in nets.values():
            net.close()


def test_stack_shape_is_checked():
    graph = build_layered_network("CTC", width=2, kernel=2)
    net = Network(graph, input_shape=(6, 6, 6))
    try:
        with pytest.raises(ValueError, match="expected"):
            net.forward(np.zeros((2, 6, 6, 7)))
    finally:
        net.close()


def test_one_image_stack_is_refused():
    """A stack holds two or more images; one image is passed as it is."""
    graph = build_layered_network("CTC", width=2, kernel=2)
    net = Network(graph, input_shape=(6, 6, 6))
    try:
        with pytest.raises(ValueError, match="at most 3-dimensional"):
            net.forward(np.zeros((1, 6, 6, 6)))
    finally:
        net.close()


def test_train_step_rejects_a_stack():
    graph = build_layered_network("CTC", width=2, kernel=2)
    net = Network(graph, input_shape=(6, 6, 6))
    try:
        target = np.zeros(net.output_nodes[0].shape)
        with pytest.raises(ValueError):
            net.train_step(np.zeros((2, 6, 6, 6)), target)
    finally:
        net.close()


def test_window_max_values_on_a_stack():
    """Each image of a stack: its own values, the zero/NaN winner
    fallback taken per image (the sign of an exact zero and a NaN's
    payload hang on the winner)."""
    rng = np.random.default_rng(1)
    stack = rng.standard_normal((4, 7, 8, 9))
    stack[1] = np.where(stack[1] > 0, 0.0, -0.0)
    stack[2, 3, 3, 3] = np.nan
    for window, step, dilation in ((2, 1, 1), (2, 2, 1), (2, 1, 2)):
        got = filtering.window_max_values(stack, window, step, dilation)
        for image, values in zip(stack, got):
            want = filtering.window_max_values(image, window, step, dilation)
            assert values.tobytes() == want.tobytes()
