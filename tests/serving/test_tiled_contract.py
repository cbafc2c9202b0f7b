"""The tiled-equivalence contract, run over every dense-inference
entry point.

``core.tiled_forward``, ``run_plan`` and ``WarmModel.run`` all reach
one stitch loop (``repro.core.tiling.run_plan``) over one tile geometry
(``TilePlan``); whatever the way in, the stitched output must be
*bitwise* the whole-volume forward pass in direct mode, the last tile
per axis shifts back instead of running ragged, progress is reported
per tile, and a volume, tile or mode map that does not fit is refused
before any tile runs.  The geometry sweep (odd and even tiles, wide
halo, anisotropic windows) stays in ``test_tiled_equivalence.py``.
"""

import numpy as np
import pytest

from repro.core import tiled_forward
from repro.serving import (ModelSpec, TilePlan, WarmModel,
                           normalize_conv_modes, run_plan)

#: CTPCT, kernel 2, window 2: fov 5, so a 9^3 tile writes 5^3 outputs.
SPEC = ModelSpec("contract", "CTPCT", conv_mode="direct", seed=5,
                 builder_kwargs=dict(width=[2, 1], kernel=2, window=2,
                                     transfer="tanh"))
TILE = (9, 9, 9)


def _tiled_forward(warm, volume, progress=None):
    return tiled_forward(warm.network, volume, progress=progress)


def _run_plan(warm, volume, progress=None, plan=None):
    return run_plan(warm.network, volume,
                    plan or warm.plan(volume.shape), progress=progress)


def _warm_run(warm, volume, progress=None, plan=None):
    return warm.run(volume, plan, progress=progress)


ENTRY_POINTS = {"tiled_forward": _tiled_forward, "run_plan": _run_plan,
                "WarmModel.run": _warm_run}
#: The entry points that can be handed a plan made elsewhere.
PLAN_TAKERS = ["run_plan", "WarmModel.run"]


@pytest.fixture(scope="module")
def warm():
    model = WarmModel(SPEC, TILE)
    yield model
    model.close()


@pytest.fixture(params=list(ENTRY_POINTS))
def run(request):
    return ENTRY_POINTS[request.param]


def whole_volume_pass(volume):
    whole = WarmModel(SPEC, volume.shape)
    try:
        return whole.network.forward(volume)[
            whole.network.output_nodes[0].name]
    finally:
        whole.close()


@pytest.mark.parametrize("shape", [(14, 14, 14), (17, 15, 21), (9, 9, 25)],
                         ids=["cubic", "ragged", "one-axis"])
def test_bitwise_equals_whole_volume(warm, run, shape):
    volume = np.random.default_rng(sum(shape)).standard_normal(shape)
    stitched = run(warm, volume)
    single = whole_volume_pass(volume)
    assert stitched.shape == single.shape == tuple(s - 4 for s in shape)
    assert np.array_equal(stitched, single)  # bitwise, not allclose


def test_shifted_back_last_tile(warm, run):
    # 17 - 9 = 8 is the last corner, off the 5-voxel output grid: the
    # third tile re-computes outputs 8..9 that the second one wrote.
    volume = np.random.default_rng(2).standard_normal((17, 9, 9))
    assert warm.plan(volume.shape).axis_starts[0] == (0, 5, 8)
    seen = []
    stitched = run(warm, volume, lambda done, total: seen.append(total))
    assert seen == [3, 3, 3]
    assert np.array_equal(stitched, whole_volume_pass(volume))


def test_progress_callback(warm, run):
    volume = np.random.default_rng(3).standard_normal((14, 14, 14))
    seen = []
    run(warm, volume, lambda done, total: seen.append((done, total)))
    assert seen == [(i, 8) for i in range(1, 9)]


def test_volume_below_tile_rejected(warm, run):
    with pytest.raises(ValueError, match="smaller"):
        run(warm, np.zeros((8, 12, 12)))


@pytest.mark.parametrize("mismatch", ["volume", "tile", "mode"])
@pytest.mark.parametrize("entry", PLAN_TAKERS)
def test_mismatched_plan_rejected(warm, entry, mismatch):
    volume = np.zeros((14, 14, 14))
    plan, message = {
        "volume": (warm.plan((15, 14, 14)), "does not match plan"),
        "tile": (TilePlan(volume.shape, warm.fov, (10, 10, 10)),
                 "does not match plan tile"),
        "mode": (TilePlan(volume.shape, warm.fov, TILE,
                          conv_modes=normalize_conv_modes(
                              {e: "fft" for e in warm.network.conv_modes})),
                 "plan expects edge"),
    }[mismatch]
    if mismatch != "tile":
        assert plan.input_tile == TILE
    with pytest.raises(ValueError, match=message):
        ENTRY_POINTS[entry](warm, volume, plan=plan)
