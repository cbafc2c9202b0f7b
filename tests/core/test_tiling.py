"""Tiled inference tests: seamless stitching by translation covariance.

The entry-point contract (bitwise vs the whole volume, shifted-back last
tile, progress, rejections) is ``tests/serving/test_tiled_contract.py``;
here: the geometry helpers and ``tiled_forward`` on plain networks."""

import numpy as np
import pytest

from repro.core import (
    Network,
    copy_parameters,
    field_of_view_of,
    tile_plan,
    tiled_forward,
)
from repro.graph import build_layered_network


def dense_net(input_shape, seed=0, **kw):
    kw.setdefault("width", 2)
    kw.setdefault("kernel", 2)
    kw.setdefault("window", 2)
    kw.setdefault("transfer", "tanh")
    kw.setdefault("skip_kernels", True)
    kw.setdefault("output_nodes", 1)
    graph = build_layered_network("CTMCT", **kw)
    return Network(graph, input_shape=input_shape, seed=seed)


class TestFieldOfView:
    def test_value(self):
        net = dense_net((10, 10, 10))
        # conv2(-1) filter2(-1) conv2 s2(-2): fov 5
        assert field_of_view_of(net) == (5, 5, 5)

    def test_multi_output_rejected(self):
        graph = build_layered_network("CTC", width=2, kernel=2)
        net = Network(graph, input_shape=(8, 8, 8), seed=0)
        with pytest.raises(ValueError):
            field_of_view_of(net)


class TestTilePlan:
    def test_exact_cover_no_remainder(self):
        # volume 14, input 10, output 6: corners 0 and 4 (=14-10)
        corners = [ic for ic, _ in tile_plan((14, 14, 14), (10, 10, 10),
                                             (6, 6, 6))]
        zs = sorted({c[0] for c in corners})
        assert zs == [0, 4]

    def test_interior_stepping(self):
        corners = [ic[0] for ic, _ in tile_plan((22, 10, 10), (10, 10, 10),
                                                (6, 6, 6))]
        assert sorted(set(corners)) == [0, 6, 12]

    def test_volume_smaller_than_input_rejected(self):
        with pytest.raises(ValueError):
            list(tile_plan((8, 8, 8), (10, 10, 10), (6, 6, 6)))

    def test_exact_fit_single_tile(self):
        plan = list(tile_plan((10, 10, 10), (10, 10, 10), (6, 6, 6)))
        assert plan == [((0, 0, 0), (0, 0, 0))]


class TestTiledForward:
    @pytest.mark.parametrize("volume_shape", [(16, 16, 16), (17, 15, 21),
                                              (10, 10, 25)])
    def test_matches_single_pass(self, rng, volume_shape):
        net = dense_net((10, 10, 10), seed=1)
        vol = rng.standard_normal(volume_shape)
        tiled = tiled_forward(net, vol)

        big = dense_net(volume_shape, seed=99)
        copy_parameters(net, big)
        ref = big.forward(vol)[big.output_nodes[0].name]
        assert tiled.shape == ref.shape
        np.testing.assert_allclose(tiled, ref, atol=1e-10)

    def test_fft_mode(self, rng):
        graph = build_layered_network("CTMCT", width=2, kernel=2, window=2,
                                      transfer="tanh", skip_kernels=True,
                                      output_nodes=1)
        net = Network(graph, input_shape=(10, 10, 10), conv_mode="fft",
                      seed=3)
        vol = rng.standard_normal((15, 13, 12))
        direct = dense_net((10, 10, 10), seed=3)
        np.testing.assert_allclose(tiled_forward(net, vol),
                                   tiled_forward(direct, vol), atol=1e-9)
