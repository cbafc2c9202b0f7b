"""Tiled dense inference over large volumes.

The connectomics deployments of ZNN ([21], [23]) run trained networks
over volumes far larger than one forward pass can hold.  The standard
technique tiles the volume into overlapping input blocks — each block
extends the output tile by the network's field of view minus one, so
adjacent tiles produce *identical* values on their shared boundary (the
networks are translation covariant) and the dense outputs concatenate
seamlessly, bit for bit in direct-convolution mode.

This module is the whole path for every caller, library or server:
:class:`TilePlan` is the one tile geometry (output tile, dense shape
and tile corners from ``(volume, fov, input tile)``) and
:func:`run_plan` the one slice-forward-stitch loop.
:func:`tiled_forward` plans for a network's own input shape and runs
it; :mod:`repro.serving.tiler` adds only the tile-shape *search*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.network import Network
from repro.observability.tracing import get_tracer
from repro.utils.shapes import Shape3, as_shape3, voxels
from repro.utils.validation import check_array3

__all__ = ["PlanInfeasible", "TWIN_MIN_VOXELS", "TilePlan",
           "field_of_view_of", "run_plan", "tile_plan", "tiled_forward"]

#: Input-tile voxels that set two rules.  Below it, :func:`run_plan`
#: stacks tiles up to this many voxels into one forward: a small tile's
#: walk is Python bookkeeping around ~20 µs kernels, so one walk over
#: eight tiles beats eight walks (EXPERIMENTS.md, "Small tiles as one
#: batched walk").  And only from it does a busy serving
#: :class:`~repro.serving.registry.WarmModel` build another twin: below
#: it two concurrent runs lose to the same runs in turn (GIL handoffs;
#: EXPERIMENTS.md, "Serving twins: the crossover").
TWIN_MIN_VOXELS = 30 ** 3


class PlanInfeasible(ValueError):
    """No tile plan satisfies the request's geometry or budget.

    Raised when the volume is smaller than the field of view or the
    input tile on some axis (no output voxel / no whole tile exists),
    when the voxel budget is below ``prod(fov)`` (every tile must cover
    the fov, so the budget is unsatisfiable — silently returning a
    fov-sized, over-budget tile would hide the violation), or when a
    tile would yield a non-positive output extent (``tile < fov`` on an
    axis: the halo math would produce negative core extents).  A
    subclass of :class:`ValueError` so callers that caught the old
    geometry errors keep working.
    """


def field_of_view_of(network: Network) -> Shape3:
    """The network's field of view: input size − output size + 1."""
    if len(network.input_nodes) != 1 or len(network.output_nodes) != 1:
        raise ValueError("tiled inference needs exactly one input and "
                         "one output node")
    in_shape = network.input_nodes[0].shape
    out_shape = network.output_nodes[0].shape
    fov = tuple(i - o + 1 for i, o in zip(in_shape, out_shape))
    if any(f < 1 for f in fov):
        raise ValueError(f"invalid field of view {fov}")
    return fov  # type: ignore[return-value]


@dataclass(frozen=True)
class TilePlan:
    """A fully-resolved tiling of one volume — the one place the tile
    geometry is derived.

    Every tile reads ``input_tile`` voxels at its corner and writes
    ``output_tile = input_tile − fov + 1`` voxels of the dense output
    (shape ``volume − fov + 1``) at the *same* corner.  Interior tiles
    step by the output tile; the last tile per axis shifts back to end
    exactly at the volume boundary, re-computing a few voxels instead
    of running a ragged partial tile (exact, by translation
    covariance).

    ``conv_modes``, when set, is the per-conv-edge backend map the plan
    was made for (ZNNi per-layer specialization,
    :mod:`repro.serving.specialize`) as a sorted ``(edge, mode)``
    tuple; :func:`run_plan` then refuses a network whose modes
    disagree — running a plan costed for one backend mix on another
    silently voids both the throughput prediction and the determinism
    contract.
    """

    volume_shape: Shape3
    fov: Shape3
    input_tile: Shape3
    conv_modes: Optional[Tuple[Tuple[str, str], ...]] = None
    output_tile: Shape3 = field(init=False)
    dense_shape: Shape3 = field(init=False)
    #: Per-axis tile corners; the tiles are their cross product.
    axis_starts: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        v = as_shape3(self.volume_shape, name="volume_shape")
        f = as_shape3(self.fov, name="fov")
        t = as_shape3(self.input_tile, name="input_tile")
        o = tuple(td - fd + 1 for td, fd in zip(t, f))
        if any(od < 1 for od in o):
            raise PlanInfeasible(
                f"input tile {t} is below the field of view {f}: "
                f"output tile {o} has a non-positive extent")
        if any(vd < td for vd, td in zip(v, t)):
            raise PlanInfeasible(
                f"volume {v} smaller than the input tile {t}")
        starts = []
        for vd, td, od in zip(v, t, o):
            last = vd - td  # last valid corner
            axis = list(range(0, last + 1, od))
            if axis[-1] != last:
                axis.append(last)
            starts.append(tuple(axis))
        put = object.__setattr__  # the dataclass is frozen
        put(self, "volume_shape", v)
        put(self, "fov", f)
        put(self, "input_tile", t)
        put(self, "output_tile", o)
        put(self, "dense_shape",
            tuple(vd - fd + 1 for vd, fd in zip(v, f)))
        put(self, "axis_starts", tuple(starts))

    @property
    def tiles(self) -> List[Tuple[Shape3, Shape3]]:
        """``(input_corner, output_corner)`` per tile, z-major; the two
        coincide because output = input − fov + 1."""
        return [(c, c) for c in product(*self.axis_starts)]

    @property
    def num_tiles(self) -> int:
        z, y, x = self.axis_starts
        return len(z) * len(y) * len(x)

    @property
    def conv_mode_map(self) -> Optional[dict]:
        """``conv_modes`` as the dict :class:`repro.core.Network`
        accepts, or None when the plan is mode-agnostic."""
        if self.conv_modes is None:
            return None
        return dict(self.conv_modes)

    @property
    def tile_input_voxels(self) -> int:
        return voxels(self.input_tile)

    @property
    def halo(self) -> Shape3:
        """Per-axis overlap between adjacent input tiles."""
        return tuple(f - 1 for f in self.fov)  # type: ignore[return-value]

    @property
    def recompute_fraction(self) -> float:
        """Fraction of tile-input voxels read more than once (the halo
        overhead the ZNNi output-patch trade-off is about)."""
        total = self.num_tiles * self.tile_input_voxels
        return 1.0 - voxels(self.volume_shape) / total if total else 0.0


def tile_plan(volume_shape: Sequence[int], input_shape: Sequence[int],
              output_shape: Sequence[int]
              ) -> Iterator[Tuple[Shape3, Shape3]]:
    """Yield the ``(input_corner, output_corner)`` pairs of the
    :class:`TilePlan` for a network mapping *input_shape* blocks to
    *output_shape* blocks."""
    fov = tuple(i - o + 1 for i, o in zip(
        as_shape3(input_shape, name="input_shape"),
        as_shape3(output_shape, name="output_shape")))
    yield from TilePlan(volume_shape, fov, input_shape).tiles  # type: ignore[arg-type]


# deterministic
def run_plan(network, volume: np.ndarray, plan: TilePlan,
             progress=None) -> np.ndarray:
    """Execute *plan* with *network* (whose input shape must equal the
    plan's tile) and stitch the seam-free dense output.

    Tiles below :data:`TWIN_MIN_VOXELS` run as stacks of up to that many
    voxels, one forward per stack, each tile bit for bit as alone; this
    is the one place the batch size is chosen.  ``progress(done,
    total)`` is called after each tile.  In direct convolution mode the
    stitched result is bitwise identical to a single forward pass over
    the whole volume (contract-tested in
    ``tests/serving/test_tiled_contract.py``).
    """
    if volume.shape != plan.volume_shape:
        raise ValueError(
            f"volume {volume.shape} does not match plan "
            f"{plan.volume_shape}")
    in_shape = network.input_nodes[0].shape
    if tuple(in_shape) != plan.input_tile:
        raise ValueError(
            f"network input {tuple(in_shape)} does not match plan tile "
            f"{plan.input_tile}")
    if plan.conv_modes is not None:
        actual = getattr(network, "conv_modes", {})
        for edge, mode in plan.conv_modes:
            if actual.get(edge) != mode:
                raise ValueError(
                    f"plan expects edge {edge!r} in {mode!r} mode but "
                    f"the network runs it in {actual.get(edge)!r}; "
                    f"build the warm model from the plan's mode map")
    out_name = network.output_nodes[0].name
    o = plan.output_tile
    tiles = plan.tiles
    batch = max(1, TWIN_MIN_VOXELS // plan.tile_input_voxels)
    dense = np.empty(plan.dense_shape, dtype=np.float64)
    tracer = get_tracer()
    for first in range(0, len(tiles), batch):
        group = tiles[first:first + batch]
        blocks = np.stack([volume[ic[0]:ic[0] + in_shape[0],
                                  ic[1]:ic[1] + in_shape[1],
                                  ic[2]:ic[2] + in_shape[2]]
                           for ic, _ in group])
        images = blocks[0] if len(group) == 1 else blocks  # a stack is B >= 2
        if tracer.enabled:
            # Child of the caller's span (the serving "serve" span);
            # the network's pass spans (or, threaded, its fwd tasks)
            # nest under this one span per stack in turn.
            with tracer.span(f"tile:{first}", category="tile",
                             corner=list(group[0][0]),
                             tiles=[first, first + len(group) - 1]):
                outputs = network.forward(images)
        else:
            outputs = network.forward(images)
        stack = outputs[out_name].reshape((-1,) + o)
        for index, ((_, oc), tile) in enumerate(zip(group, stack), first):
            dense[oc[0]:oc[0] + o[0],
                  oc[1]:oc[1] + o[1],
                  oc[2]:oc[2] + o[2]] = tile
            if progress is not None:
                progress(index + 1, len(tiles))
    return dense


def tiled_forward(network: Network, volume: np.ndarray,
                  progress: Optional[callable] = None) -> np.ndarray:
    """Dense inference over *volume* by overlapping tiles of the
    network's own input shape.

    Returns the full dense output of shape ``volume − fov + 1`` per
    axis; every voxel equals what a (hypothetical) single forward pass
    over the whole volume would produce.
    """
    vol = check_array3(volume, "volume")
    plan = TilePlan(vol.shape, field_of_view_of(network),
                    network.input_nodes[0].shape)
    return run_plan(network, vol, plan, progress=progress)
