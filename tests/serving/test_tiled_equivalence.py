"""Tiled serving output is bitwise identical to one whole-volume pass.

The dense-equivalent twin computes each output voxel from exactly its
fov-sized input window (translation covariance), and direct-mode
convolution accumulates kernel taps in a fixed order independent of
the image extent (every node sums in edge order, whatever the
schedule).  So stitching overlapping tiles must reproduce
the single-pass output *bit for bit* — the acceptance criterion of the
serving tiler.  FFT mode computes per-tile transforms whose sizes
depend on the tile shape, so there equality is only up to float
tolerance.
"""

import numpy as np
import pytest

from repro.core import Network
from repro.core.inference import dense_equivalent_network
from repro.graph import build_layered_network
from repro.serving.tiler import TilePlan, plan_volume, run_plan


def build_pool(spec, pool_input, **kwargs):
    graph = build_layered_network(spec, **kwargs)
    return Network(graph, input_shape=pool_input, seed=5)


def stitched_and_single(pool, spec, volume, tile=None, max_voxels=None,
                        conv_mode="direct", **builder_kwargs):
    """Run the volume tiled (at *tile*, or the tile ``plan_volume``
    picks under *max_voxels*) and in one pass; return both outputs."""
    fov_twin = dense_equivalent_network(
        pool, spec, volume.shape, conv_mode=conv_mode,
        **builder_kwargs)
    fov = tuple(v - o + 1 for v, o in
                zip(volume.shape, fov_twin.output_nodes[0].shape))
    single = fov_twin.forward(volume)[fov_twin.output_nodes[0].name]
    fov_twin.close()

    plan = (TilePlan(volume.shape, fov, tile) if tile is not None
            else plan_volume(volume.shape, fov, max_voxels=max_voxels))
    tile_twin = dense_equivalent_network(
        pool, spec, plan.input_tile, conv_mode=conv_mode,
        **builder_kwargs)
    stitched = run_plan(tile_twin, volume, plan)
    tile_twin.close()
    return stitched, single, plan


CASES = [
    # (name, spec, builder kwargs, pool input, volume, input tile); each
    # tile is pinned so the case keeps the geometry its name says.
    ("even-tiles", "CTPCT",  # fov 5: 6^3 output tiles, 2 per axis
     dict(width=[2, 1], kernel=2, window=2, transfer="tanh"),
     (9, 9, 9), (14, 14, 14), (10, 10, 10)),
    ("odd-tiles", "CTPCT",  # fov 5: 3^3 output tiles, 4 per axis
     dict(width=[2, 1], kernel=2, window=2, transfer="tanh"),
     (9, 9, 9), (15, 15, 15), (7, 7, 7)),
    ("wide-halo", "CTPCT",  # fov 8: a 7-voxel halo
     dict(width=[2, 1], kernel=3, window=2, transfer="tanh"),
     (10, 10, 10), (17, 17, 17), (10, 12, 12)),
    ("two-pool-layers", "CTPCTPCT",  # fov 11
     dict(width=[2, 2, 1], kernel=2, window=2, transfer="tanh"),
     (11, 11, 11), (20, 20, 20), (16, 16, 16)),
    ("anisotropic-window", "CTPCT",  # fov (3, 5, 5)
     dict(width=[2, 1], kernel=2, window=(1, 2, 2), transfer="tanh"),
     (5, 9, 9), (7, 15, 15), (6, 10, 10)),
    ("2d-as-3d", "CTPCT",  # fov (1, 5, 5), 3 x 2 tiles in-plane
     dict(width=[2, 1], kernel=(1, 2, 2), window=(1, 2, 2),
          transfer="tanh"),
     (1, 9, 9), (1, 17, 17), (1, 10, 11)),
]


@pytest.mark.parametrize(
    "name,spec,kwargs,pool_input,volume_shape,tile",
    CASES, ids=[c[0] for c in CASES])
def test_stitched_bitwise_equals_single_pass(name, spec, kwargs,
                                             pool_input, volume_shape,
                                             tile):
    pool = build_pool(spec, pool_input, **kwargs)
    volume = np.random.default_rng(hash(name) % 2**32).standard_normal(
        volume_shape)
    stitched, single, plan = stitched_and_single(
        pool, spec, volume, tile, **kwargs)
    pool.close()
    assert plan.num_tiles > 1, "case must actually exercise stitching"
    assert stitched.shape == single.shape
    assert np.array_equal(stitched, single)  # bitwise, not allclose


def test_single_tile_degenerates_to_one_pass():
    kwargs = dict(width=[2, 1], kernel=2, window=2, transfer="tanh")
    pool = build_pool("CTPCT", (9, 9, 9), **kwargs)
    volume = np.random.default_rng(0).standard_normal((12, 12, 12))
    stitched, single, plan = stitched_and_single(
        pool, "CTPCT", volume, max_voxels=10**9, **kwargs)
    pool.close()
    assert plan.num_tiles == 1
    assert np.array_equal(stitched, single)


def test_fft_mode_matches_to_tolerance():
    """FFT transform sizes differ between tile and whole-volume nets,
    so exact equality is not expected — but agreement must be tight."""
    kwargs = dict(width=[2, 1], kernel=2, window=2, transfer="tanh")
    pool = build_pool("CTPCT", (9, 9, 9), **kwargs)
    volume = np.random.default_rng(7).standard_normal((14, 14, 14))
    stitched, single, plan = stitched_and_single(
        pool, "CTPCT", volume, max_voxels=1000, conv_mode="fft", **kwargs)
    pool.close()
    assert plan.num_tiles > 1
    np.testing.assert_allclose(stitched, single, rtol=1e-10, atol=1e-12)


def test_fft_tiles_match_direct_single_pass_to_tolerance():
    """Cross-mode check: FFT-served tiles vs direct whole-volume."""
    kwargs = dict(width=[2, 1], kernel=2, window=2, transfer="tanh")
    pool = build_pool("CTPCT", (9, 9, 9), **kwargs)
    volume = np.random.default_rng(8).standard_normal((14, 14, 14))

    direct_twin = dense_equivalent_network(
        pool, "CTPCT", volume.shape, conv_mode="direct",
        **kwargs)
    single = direct_twin.forward(volume)[
        direct_twin.output_nodes[0].name]
    fov = tuple(v - o + 1 for v, o in
                zip(volume.shape, direct_twin.output_nodes[0].shape))
    direct_twin.close()

    plan = plan_volume(volume.shape, fov, max_voxels=1000)
    fft_twin = dense_equivalent_network(
        pool, "CTPCT", plan.input_tile, conv_mode="fft",
        **kwargs)
    stitched = run_plan(fft_twin, volume, plan)
    fft_twin.close()
    pool.close()
    np.testing.assert_allclose(stitched, single, rtol=1e-10, atol=1e-12)
