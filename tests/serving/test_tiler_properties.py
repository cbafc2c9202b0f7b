"""Property-based tests for the serving tile planner.

The geometric contract behind seam-free stitching: every output voxel
of the dense result is written by at least one tile, every tile stays
inside the volume, and the tile-shape chooser respects the fov floor,
the volume ceiling and the voxel budget, and no budget-feasible tile
of 11-smooth (or whole-axis) lengths computes fewer voxels.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tiling import TilePlan
from repro.serving.tiler import (PlanInfeasible, choose_tile_shape,
                                 largest_fast_len, plan_volume)
from repro.utils.shapes import voxels

axis = st.tuples(st.integers(1, 5), st.integers(0, 19))
geometry = st.tuples(axis, axis, axis)
budget = st.one_of(st.none(), st.integers(1, 4000))


def smooth_11(n):
    for p in (2, 3, 5, 7, 11):
        while n % p == 0:
            n //= p
    return n == 1


def unpack(geom):
    fov = tuple(f for f, _ in geom)
    volume = tuple(f + extra for f, extra in geom)
    return volume, fov


class TestLargestFastLen:
    @given(n=st.integers(1, 2000), floor=st.integers(1, 2000))
    @settings(max_examples=60)
    def test_result_is_the_largest_11_smooth_in_range(self, n, floor):
        """The largest 11-smooth length in [floor, n]."""
        result = largest_fast_len(n, floor)
        if result is None:
            # No 11-smooth integer in [floor, n] at all.
            assert not any(smooth_11(k) for k in range(floor, n + 1))
            return
        assert floor <= result <= n
        assert smooth_11(result)
        # Maximal: nothing 11-smooth above it within range.
        assert not any(smooth_11(k) for k in range(result + 1, n + 1))


class TestChooseTileShape:
    @given(geom=geometry, max_voxels=budget)
    @settings(max_examples=60)
    def test_bounds_and_budget(self, geom, max_voxels):
        volume, fov = unpack(geom)
        if max_voxels is not None and voxels(fov) > max_voxels:
            # Budget below the fov floor: refusal is the contract.
            with pytest.raises(PlanInfeasible):
                choose_tile_shape(volume, fov, max_voxels=max_voxels)
            return
        tile = choose_tile_shape(volume, fov, max_voxels=max_voxels)
        for t, f, v in zip(tile, fov, volume):
            assert f <= t <= v
        if max_voxels is not None:
            assert voxels(tile) <= max_voxels

    @given(geom=geometry)
    @settings(max_examples=30)
    def test_unsatisfiable_budget_raises(self, geom):
        volume, fov = unpack(geom)
        # A budget below prod(fov) cannot be met — fov is the hard
        # floor — so the planner raises instead of silently returning
        # an over-budget fov tile (the old behaviour hid real
        # memory-budget violations).
        with pytest.raises(PlanInfeasible, match="budget"):
            choose_tile_shape(volume, fov, max_voxels=voxels(fov) - 1)

    @given(geom=geometry, max_voxels=st.integers(1, 4000))
    @settings(max_examples=60, deadline=None)
    def test_computes_fewest_voxels(self, geom, max_voxels):
        volume, fov = unpack(geom)
        max_voxels = max(max_voxels, voxels(fov))  # keep it feasible

        def work(tile):
            plan = TilePlan(volume, fov, tile)
            return plan.num_tiles * voxels(tile)

        def lengths(f, v):
            return [t for t in range(f, v + 1) if t == v or smooth_11(t)]

        tile = choose_tile_shape(volume, fov, max_voxels=max_voxels)
        chosen = work(tile)
        for a in lengths(fov[0], volume[0]):
            for b in lengths(fov[1], volume[1]):
                for c in lengths(fov[2], volume[2]):
                    if a * b * c <= max_voxels:
                        assert chosen <= work((a, b, c)), (tile, (a, b, c))


class TestPlanVolume:
    @given(geom=geometry, max_voxels=budget)
    @settings(max_examples=60)
    def test_seam_free_coverage(self, geom, max_voxels):
        volume, fov = unpack(geom)
        if max_voxels is not None and voxels(fov) > max_voxels:
            max_voxels = voxels(fov)  # keep the budget feasible
        plan = plan_volume(volume, fov, max_voxels=max_voxels)
        assert plan.dense_shape == tuple(
            v - f + 1 for v, f in zip(volume, fov))
        assert plan.output_tile == tuple(
            t - f + 1 for t, f in zip(plan.input_tile, fov))
        counts = np.zeros(plan.dense_shape, dtype=np.int64)
        o = plan.output_tile
        for ic, oc in plan.tiles:
            assert ic == oc  # corners coincide (output = input - fov + 1)
            for d in range(3):
                assert 0 <= ic[d]
                assert ic[d] + plan.input_tile[d] <= volume[d]
                assert oc[d] + o[d] <= plan.dense_shape[d]
            counts[oc[0]:oc[0] + o[0],
                   oc[1]:oc[1] + o[1],
                   oc[2]:oc[2] + o[2]] += 1
        # Every dense output voxel is computed by at least one tile —
        # no seams, no gaps.  (Boundary tiles shift back, so "exactly
        # once" is deliberately NOT the contract; recompute is.)
        assert counts.min() >= 1

    @given(geom=geometry, max_voxels=budget)
    @settings(max_examples=40)
    def test_recompute_fraction_bounds(self, geom, max_voxels):
        volume, fov = unpack(geom)
        if max_voxels is not None and voxels(fov) > max_voxels:
            max_voxels = voxels(fov)  # keep the budget feasible
        plan = plan_volume(volume, fov, max_voxels=max_voxels)
        assert 0.0 <= plan.recompute_fraction < 1.0
        assert plan.num_tiles >= 1
        assert plan.tile_input_voxels == voxels(plan.input_tile)
        assert plan.halo == tuple(f - 1 for f in fov)

    @given(geom=geometry)
    @settings(max_examples=20)
    def test_single_tile_when_budget_allows_whole_volume(self, geom):
        volume, fov = unpack(geom)
        plan = plan_volume(volume, fov, max_voxels=voxels(volume))
        assert plan.input_tile == volume
        assert plan.num_tiles == 1
        assert plan.tiles == [((0, 0, 0), (0, 0, 0))]
