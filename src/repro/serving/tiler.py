"""Tile-shape search for dense-inference serving.

A serving request may carry a volume far larger than one forward pass
should hold in memory.  The tile geometry and the stitch loop are
:class:`repro.core.tiling.TilePlan` and :func:`repro.core.tiling.run_plan`
(re-exported here); this module decides the one thing they leave open,
the input-tile *shape*.

The tile-shape choice is where ZNNi's output-patch analysis
(arXiv:1606.05688) enters: every tile pays its halo (``fov - 1`` per
axis) again, so the tile shape decides a request's work.
:func:`choose_tile_shape` is an exact, memoised search for the
budget-feasible tile computing the fewest input voxels
(``num_tiles * voxels(tile)``) over the lengths of
:func:`axis_lengths`.  All tiles share one input shape — the warm
model is built once per (model, tile shape).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Mapping, Optional, Sequence, Tuple

from repro.core.tiling import PlanInfeasible, TilePlan, run_plan
from repro.tensor.backends import conv_backend
from repro.tensor.fourier import next_fast_len
from repro.utils.shapes import Shape3, as_shape3, voxels

__all__ = [
    "DEFAULT_TILE_VOXELS",
    "PlanInfeasible",
    "largest_fast_len",
    "axis_lengths",
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
    """Largest 11-smooth integer in ``[floor, n]``, or None if none
    exists (the dual of :func:`repro.tensor.fourier.next_fast_len`)."""
    if floor > n:
        return None
    for candidate in range(n, floor - 1, -1):
        if next_fast_len(candidate) == candidate:
            return candidate
    return None


@lru_cache(maxsize=1024)
def axis_lengths(length: int, fov: int) -> Tuple[int, ...]:
    """Candidate tile lengths along one axis, longest first: the whole
    axis, the fov floor, and for every tile count ``n`` the shortest
    length giving ``n`` tiles, ``ceil(dense / n) + fov - 1``, rounded up
    to :func:`~repro.tensor.fourier.next_fast_len` if that still fits.
    """
    dense = length - fov + 1
    lengths = {length, fov}
    for n in range(1, dense + 1):
        tile = next_fast_len(-(-dense // n) + fov - 1)
        if tile <= length:
            lengths.add(tile)
    return tuple(sorted(lengths, reverse=True))


@lru_cache(maxsize=1024)
def _fewest_voxels_tile(volume: Shape3, fov: Shape3,
                        max_voxels: int) -> Shape3:
    # Per axis (length, tiles), tiles = ceil(dense / output tile) as
    # TilePlan lays them out.  Fewest computed voxels wins, then fewest
    # tiles, then the longer last (rfftn-halved) axis, then lexicographic.
    axes = [[(t, -(-(vd - fd + 1) // (t - fd + 1)))
             for t in axis_lengths(vd, fd)] for vd, fd in zip(volume, fov)]
    return min((na * nb * nc * a * b * c, na * nb * nc, -c, (a, b, c))
               for a, na in axes[0] for b, nb in axes[1]
               for c, nc in axes[2] if a * b * c <= max_voxels)[3]


def choose_tile_shape(volume_shape: Sequence[int], fov: Sequence[int],
                      max_voxels: Optional[int] = None) -> Shape3:
    """Input tile shape for tiling *volume_shape* with a network of
    field of view *fov*: of the tiles within *max_voxels*, the one
    whose tiling computes the fewest input voxels.

    Per axis the tile is at least ``fov`` (the minimum input producing
    any output) and at most the volume, so a volume below the fov or a
    budget below ``prod(fov)`` raises :class:`PlanInfeasible`.
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
    return _fewest_voxels_tile(v, f, max_voxels)


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
                conv_modes: Optional[Mapping[str, str]] = None) -> TilePlan:
    """Plan a seam-free tiling of *volume_shape* for a network of field
    of view *fov*; a repeated call returns the same (frozen) plan.

    *conv_modes* optionally records the per-conv-edge backend map the
    plan is intended for (see :class:`TilePlan.conv_modes`); the tile
    search itself is mode-independent.
    """
    return _plan_volume(as_shape3(volume_shape, name="volume_shape"),
                        as_shape3(fov, name="fov"), max_voxels,
                        normalize_conv_modes(conv_modes))


@lru_cache(maxsize=256)
def _plan_volume(volume: Shape3, fov: Shape3, max_voxels: Optional[int],
                 conv_modes: Optional[Tuple[Tuple[str, str], ...]]
                 ) -> TilePlan:
    tile = choose_tile_shape(volume, fov, max_voxels=max_voxels)
    return TilePlan(volume, fov, tile, conv_modes=conv_modes)
