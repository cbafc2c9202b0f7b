"""Tiling planner: fewest computed voxels, voxel budgets, exact coverage."""

import numpy as np
import pytest

from repro.serving.tiler import (
    DEFAULT_TILE_VOXELS,
    PlanInfeasible,
    TilePlan,
    axis_lengths,
    choose_tile_shape,
    largest_fast_len,
    normalize_conv_modes,
    plan_volume,
)
from repro.tensor.fourier import next_fast_len


class TestLargestFastLen:
    def test_fast_numbers_map_to_themselves(self):
        for n in (1, 2, 3, 4, 5, 7, 8, 9, 10, 11, 12, 14, 16, 21, 22, 27):
            assert largest_fast_len(n) == n

    def test_rounds_down(self):
        assert largest_fast_len(13) == 12
        assert largest_fast_len(17) == 16
        assert largest_fast_len(31) == 30

    def test_respects_floor(self):
        assert largest_fast_len(13, floor=13) is None
        assert largest_fast_len(19, floor=17) == 18

    def test_empty_range(self):
        assert largest_fast_len(3, floor=5) is None

    def test_is_dual_of_next_fast_len(self):
        for n in range(1, 200):
            down = largest_fast_len(n)
            assert down is not None and down <= n
            assert next_fast_len(down) == down


class TestChooseTileShape:
    def test_small_volume_unchanged_when_fast(self):
        assert choose_tile_shape((16, 16, 16), (5, 5, 5)) == (16, 16, 16)

    def test_whole_volume_when_it_fits(self):
        # One 17^3 tile, not 8 tiles of an 11-smooth 16^3.
        assert choose_tile_shape((17, 17, 17), (5, 5, 5)) == (17, 17, 17)

    def test_fewest_voxels_not_largest_cube(self):
        # 48^3 at fov 18 under a 36^3 budget: six 28 x 33 x 48 tiles
        # read 266,112 voxels, the eight 36^3 cubes 373,248.
        plan = plan_volume((48, 48, 48), (18, 18, 18), max_voxels=46656)
        assert plan.input_tile == (28, 33, 48)
        assert plan.num_tiles == 6

    def test_lengths_are_11_smooth_or_endpoints(self):
        assert axis_lengths(48, 18) == (48, 33, 28, 25, 24, 22, 21, 20, 18)
        # 13 (prime) rounds up to 14; 17 is the whole axis.
        assert axis_lengths(17, 5) == (17, 11, 9, 8, 7, 6, 5)
        assert axis_lengths(13, 13) == (13,)

    def test_budget_shrinks_tile(self):
        tile = choose_tile_shape((100, 100, 100), (5, 5, 5),
                                 max_voxels=1000)
        assert np.prod(tile) <= 1000
        assert all(t >= 5 for t in tile)

    def test_budget_below_fov_raises(self):
        # fov is a hard floor, so a budget under prod(fov) is
        # unsatisfiable: the planner must refuse, not silently return
        # an over-budget fov-sized tile.
        with pytest.raises(PlanInfeasible, match="budget"):
            choose_tile_shape((50, 50, 50), (9, 9, 9), max_voxels=1)

    def test_budget_exactly_fov_is_feasible(self):
        tile = choose_tile_shape((50, 50, 50), (9, 9, 9),
                                 max_voxels=9 * 9 * 9)
        assert tile == (9, 9, 9)

    def test_volume_smaller_than_fov_raises(self):
        with pytest.raises(PlanInfeasible, match="field of view"):
            choose_tile_shape((4, 10, 10), (5, 5, 5))

    def test_plan_infeasible_is_a_value_error(self):
        # Pre-existing callers catch ValueError; the typed refusal must
        # keep matching.
        assert issubclass(PlanInfeasible, ValueError)

    def test_anisotropic_fov(self):
        tile = choose_tile_shape((40, 40, 40), (1, 7, 7), max_voxels=500)
        assert all(t >= f for t, f in zip(tile, (1, 7, 7)))
        assert np.prod(tile) <= 500

    def test_default_budget(self):
        tile = choose_tile_shape((512, 512, 512), (9, 9, 9))
        assert np.prod(tile) <= DEFAULT_TILE_VOXELS


class TestPlanVolume:
    def test_single_tile_plan(self):
        plan = plan_volume((16, 16, 16), (5, 5, 5))
        assert plan.num_tiles == 1
        assert plan.input_tile == (16, 16, 16)
        assert plan.output_tile == (12, 12, 12)
        assert plan.dense_shape == (12, 12, 12)

    def test_output_blocks_cover_dense_exactly(self):
        plan = plan_volume((30, 30, 30), (5, 5, 5), max_voxels=1000)
        covered = np.zeros(plan.dense_shape, dtype=int)
        o = plan.output_tile
        for _, oc in plan.tiles:
            covered[oc[0]:oc[0] + o[0],
                    oc[1]:oc[1] + o[1],
                    oc[2]:oc[2] + o[2]] += 1
        assert covered.min() >= 1  # every output voxel written
        # interior tiles don't overlap; only shift-back tiles do
        assert covered.max() <= 8

    def test_input_corners_in_bounds(self):
        plan = plan_volume((23, 29, 31), (5, 5, 5), max_voxels=800)
        for ic, oc in plan.tiles:
            assert all(c >= 0 for c in ic)
            assert all(c + t <= v for c, t, v in
                       zip(ic, plan.input_tile, plan.volume_shape))
            assert ic == oc  # output corner == input corner (valid conv)

    def test_halo_and_recompute(self):
        plan = plan_volume((30, 30, 30), (5, 5, 5), max_voxels=1000)
        assert plan.halo == (4, 4, 4)
        assert 0.0 < plan.recompute_fraction < 1.0
        single = plan_volume((16, 16, 16), (5, 5, 5))
        assert single.recompute_fraction == 0.0

    def test_is_frozen(self):
        plan = plan_volume((16, 16, 16), (5, 5, 5))
        assert isinstance(plan, TilePlan)
        with pytest.raises(AttributeError):
            plan.fov = (1, 1, 1)

    def test_repeated_call_returns_the_same_plan(self):
        plan = plan_volume((48, 48, 48), (18, 18, 18), max_voxels=46656)
        assert plan_volume([48, 48, 48], (18, 18, 18),
                           max_voxels=46656) is plan
        assert plan_volume((48, 48, 48), (18, 18, 18)) is not plan

    def test_2d_volume_promotes(self):
        plan = plan_volume((1, 20, 20), (1, 5, 5))
        assert plan.volume_shape == (1, 20, 20)
        assert plan.dense_shape == (1, 16, 16)

    def test_externally_built_sub_fov_tile_raises(self):
        # TilePlan itself guards the geometry: a hand-built plan with
        # tile < fov (negative output extent) is refused at
        # construction, not at stitch time.
        with pytest.raises(PlanInfeasible, match="non-positive"):
            TilePlan(volume_shape=(16, 16, 16), fov=(5, 5, 5),
                     input_tile=(4, 16, 16))


class TestConvModes:
    def test_normalize_sorts_and_freezes(self):
        modes = normalize_conv_modes({"b": "fft", "a": "direct"})
        assert modes == (("a", "direct"), ("b", "fft"))
        # Pairs round-trip through the tuple form unchanged.
        assert normalize_conv_modes(modes) == modes
        assert normalize_conv_modes(None) is None

    def test_normalize_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="direct|fft"):
            normalize_conv_modes({"a": "spectral"})

    def test_plan_volume_records_modes(self):
        plan = plan_volume((16, 16, 16), (5, 5, 5),
                           conv_modes={"conv_a": "fft"})
        assert plan.conv_modes == (("conv_a", "fft"),)
        assert plan.conv_mode_map == {"conv_a": "fft"}
        agnostic = plan_volume((16, 16, 16), (5, 5, 5))
        assert agnostic.conv_modes is None
        assert agnostic.conv_mode_map is None
