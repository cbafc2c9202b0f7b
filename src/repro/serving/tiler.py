"""Tile-shape search for dense-inference serving.

A serving request may carry a volume far larger than one forward pass
should hold in memory.  The tile geometry and the stitch loop are
:class:`repro.core.tiling.TilePlan` and :func:`repro.core.tiling.run_plan`
(re-exported here); this module decides the one thing they leave open,
the input-tile *shape*.

The tile-shape choice is where ZNNi's output-patch analysis
(arXiv:1606.05688) enters: inference throughput on CPU is maximised by
the largest output patch that fits the memory budget, and FFT-based
layers additionally want transform sizes that are 5-smooth
(:func:`repro.tensor.fourier.next_fast_len`).  :func:`choose_tile_shape`
therefore picks, per axis, the largest 5-smooth input size that fits
the volume, then shrinks axes (largest first, staying 5-smooth where
possible) until the voxel budget is met.  All tiles share one input
shape — the warm model is built once per (model, tile shape).
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from repro.core.tiling import PlanInfeasible, TilePlan, run_plan
from repro.tensor.backends import conv_backend
from repro.tensor.fourier import next_fast_len
from repro.utils.shapes import Shape3, as_shape3, voxels

__all__ = [
    "DEFAULT_TILE_VOXELS",
    "PlanInfeasible",
    "largest_fast_len",
    "choose_tile_shape",
    "normalize_conv_modes",
    "TilePlan",
    "plan_volume",
    "run_plan",
]

#: Default input-tile voxel budget: 2^21 voxels = 16 MiB of float64 per
#: tile image, a comfortable per-request working set that still keeps
#: FFT transforms well inside L3 on the paper's machines.
DEFAULT_TILE_VOXELS = 1 << 21


def largest_fast_len(n: int, floor: int = 1) -> Optional[int]:
    """Largest 5-smooth integer in ``[floor, n]``, or None if none
    exists (the dual of :func:`repro.tensor.fourier.next_fast_len`)."""
    if floor > n:
        return None
    for candidate in range(n, floor - 1, -1):
        if next_fast_len(candidate) == candidate:
            return candidate
    return None


def choose_tile_shape(volume_shape: Sequence[int], fov: Sequence[int],
                      max_voxels: Optional[int] = None,
                      fast_sizes: bool = True) -> Shape3:
    """Input tile shape for tiling *volume_shape* with a network of
    field of view *fov*.

    Per axis the tile is at least ``fov`` (the minimum input producing
    any output) and at most the volume.  With *fast_sizes* the planner
    prefers 5-smooth sizes; axes are shrunk largest-first until the
    tile fits *max_voxels*.  fov is a hard floor, so a budget smaller
    than ``prod(fov)`` is unsatisfiable and raises
    :class:`PlanInfeasible` (it used to silently return an over-budget
    fov-sized tile, which hid real memory-budget violations).
    """
    v = as_shape3(volume_shape, name="volume_shape")
    f = as_shape3(fov, name="fov")
    if any(vd < fd for vd, fd in zip(v, f)):
        raise PlanInfeasible(
            f"volume {v} smaller than the field of view {f}")
    if max_voxels is None:
        max_voxels = DEFAULT_TILE_VOXELS
    if voxels(f) > max_voxels:
        raise PlanInfeasible(
            f"tile budget of {max_voxels} voxels cannot cover the "
            f"field of view {f} ({voxels(f)} voxels); every tile must "
            f"be at least fov-sized")

    def best(n: int, floor: int) -> int:
        if not fast_sizes:
            return n
        fast = largest_fast_len(n, floor)
        return fast if fast is not None else n

    tile = [best(vd, fd) for vd, fd in zip(v, f)]
    while voxels(tile) > max_voxels:
        # Shrink the axis with the most room above its fov floor.
        axis = max(range(3), key=lambda a: tile[a] - f[a])
        if tile[axis] <= f[axis]:
            break  # every axis is at its floor
        shrunk = best(tile[axis] - 1, f[axis])
        if shrunk >= tile[axis]:
            shrunk = tile[axis] - 1
        tile[axis] = max(shrunk, f[axis])
    return tuple(tile)  # type: ignore[return-value]


def normalize_conv_modes(conv_modes: Optional[Mapping[str, str]]
                         ) -> Optional[Tuple[Tuple[str, str], ...]]:
    """Per-edge mode mapping -> the canonical sorted, hashable tuple
    used by :class:`TilePlan` and warm-model cache keys (None passes
    through: mode-agnostic)."""
    if conv_modes is None:
        return None
    pairs = conv_modes.items() if hasattr(conv_modes, "items") \
        else conv_modes
    items = sorted((str(k), str(v)) for k, v in pairs)
    for _, mode in items:
        conv_backend(mode)
    return tuple(items)


def plan_volume(volume_shape: Sequence[int], fov: Sequence[int],
                max_voxels: Optional[int] = None,
                fast_sizes: bool = True,
                conv_modes: Optional[Mapping[str, str]] = None) -> TilePlan:
    """Plan a seam-free tiling of *volume_shape* for a network of field
    of view *fov*.

    *conv_modes* optionally records the per-conv-edge backend map the
    plan is intended for (see :class:`TilePlan.conv_modes`); the tile
    search itself is mode-independent.
    """
    tile = choose_tile_shape(volume_shape, fov, max_voxels=max_voxels,
                             fast_sizes=fast_sizes)
    return TilePlan(volume_shape, fov, tile,  # type: ignore[arg-type]
                    conv_modes=normalize_conv_modes(conv_modes))
