"""Per-layer inference specialization (ZNNi, arXiv:1606.05688 part a).

ZNNi's observation: inference throughput is maximised by choosing the
convolution algorithm and the output-patch size **per layer**, not once
per network — the direct/FFT crossover moves with depth because image
and inverse FFTs amortise over a layer's ``f * f'`` edges differently
at each shape (Mathieu/Henaff/LeCun, arXiv:1312.5851).  This module is
the serving-side planner:

* enumerate candidate input tiles between the dense twin's field of
  view and the request volume, drawn from the tiler's per-tile-count
  lengths (:func:`enumerate_candidate_tiles`);
* for each candidate, walk the twin's layer stack, price every conv
  layer under both backends with the paper's Table I/II FLOP formulas
  divided by a throughput rate — measured per edge from a ``repro
  profile`` cost model (``repro.cost_model/v1``) when one is given,
  the uniform analytic rate otherwise — and keep the cheaper backend
  per layer (:func:`evaluate_candidate`);
* account the candidate's peak working set from the twin's buffer
  shapes (forward images, plus pinned kernel / cached image / summed
  output half-spectra for FFT layers) and reject candidates over the
  memory budget;
* return the throughput-optimal :class:`SpecializationPlan`
  (:func:`plan_specialization`), a pure function of
  ``(spec, cost model, budgets, volume)`` whose JSON serialisation is
  byte-identical across runs.

Cost accounting (per input tile, forward pass only — serving never
runs backward):

* conv layers: each registered backend's Table II ``layer_flops`` for
  the forward pass at the layer's input shape (serving builds warm
  models without transform padding) with ``pinned_kernels=True`` — the
  warm-model registry pins kernel spectra, so in steady state they are
  transformed once per process, not per tile;
* filtering / transfer / dropout layers: Table I forward FLOPs at the
  layer's input shape, priced at the overall measured rate.

Memory accounting (bytes, per candidate tile):

* ``8 · |tile|`` for the request's input block, plus ``8 · f' · |out|``
  for every layer's forward image (the twin holds all of them);
* per FFT conv layer: ``16 · |rfft(T)| · (f·f' + f + f')`` — pinned
  kernel spectra, cached image spectra and the per-node spectral
  accumulators (half-spectra are complex128).

The determinism contract is layered (docs/serving.md):

* *plan purity* — same (spec, cost model, budgets, volume) in, byte
  identical plan JSON out;
* *bitwise given a plan* — serving under a fixed plan is bitwise
  reproducible across runs, thread counts and tile order;
* *all-direct plans* are bitwise identical to the unspecialized
  direct-mode whole-volume output at **any** tile shape (fixed
  tap-order accumulation is translation covariant), which the golden
  serving digests pin;
* plans that flip an edge to FFT match the direct reference only to
  rounding (an FFT convolution is not bitwise a direct one), and are
  covered by tolerance + reproducibility tests instead.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.builders import DenseTwin, dense_twin
from repro.observability.profile import (
    forward_samples,
    load_cost_model,
    validate_cost_model,
)
from repro.pram.costs import filter_task_cost, transfer_task_cost
from repro.serving.tiler import (
    DEFAULT_TILE_VOXELS,
    PlanInfeasible,
    TilePlan,
    axis_lengths,
    choose_tile_shape,
    normalize_conv_modes,
)
from repro.tensor.backends import choose, registry
from repro.tensor.fourier import rfft_shape
from repro.utils.shapes import Shape3, as_shape3, voxels

__all__ = [
    "SPECIALIZE_SCHEMA",
    "PlanInfeasible",
    "CostModel",
    "SpecializationPlan",
    "enumerate_candidate_tiles",
    "evaluate_candidate",
    "plan_specialization",
]

SPECIALIZE_SCHEMA = "repro.specialize/v1"

#: Candidate tile lengths kept per axis (largest-first, deterministic
#: thinning).  6 per axis caps the sweep at 216 candidates (plus the
#: default planner's tile) while always retaining the whole-volume and
#: fov endpoints.
MAX_AXIS_CANDIDATES = 6

_BYTES_REAL = 8  # float64 voxel
_BYTES_COMPLEX = 16  # complex128 half-spectrum voxel


class CostModel:
    """Throughput rates (FLOP/s) for pricing the analytic FLOP counts.

    With no measured document every backend runs at the uniform rate
    1.0, so costs reduce to the paper's pure FLOP comparison.  With a
    ``repro.cost_model/v1`` document (``repro train --profile-out``), a
    layer is priced at the achieved rate of its own edges' forward
    entries when present, falling back to the backend's global forward
    rate, then to the overall forward rate — measured data refines,
    never blocks.

    When every edge of a layer additionally carries a profiled
    ``image_shape``, :meth:`layer_sample` exposes the layer's *measured
    wall-clock per forward* at that shape.  The planner prefers it over
    rate pricing because the per-edge FLOP attribution double-counts
    shared work (each FFT edge is billed a full image transform even
    when the transform cache shares it across the layer's edges), which
    skews a blended rate near the crossover; measured seconds scaled by
    the analytic layer-formula ratio cancel that mismatch.
    """

    def __init__(self, doc: Optional[dict] = None,
                 source: str = "analytic") -> None:
        self.source = source
        #: (edge, backend) -> forward sample (``forward_samples``).
        self._fwd: Dict[Tuple[str, str], dict] = {}
        # backend -> [flops, seconds]; the same over every backend
        self._backend: Dict[str, List[float]] = {}
        self._overall = [0.0, 0.0]
        if doc is not None:
            self._fwd = forward_samples(validate_cost_model(doc))
            for (_, backend), sample in sorted(self._fwd.items()):
                if sample["flops"] > 0.0:  # a rate needs FLOPs
                    for bucket in (self._backend.setdefault(
                            backend, [0.0, 0.0]), self._overall):
                        bucket[0] += sample["flops"]
                        bucket[1] += sample["seconds"]

    @classmethod
    def from_file(cls, path: str) -> "CostModel":
        return cls(load_cost_model(path), source=str(path))

    @property
    def measured(self) -> bool:
        return self._overall[1] > 0.0

    def base_rate(self) -> float:
        """Rate for non-conv layers: the overall measured forward
        throughput, or 1.0 (pure FLOPs) without measurements."""
        if self._overall[1] > 0.0:
            return self._overall[0] / self._overall[1]
        return 1.0

    def rate(self, edges: Sequence[str], backend: str) -> float:
        """Achieved FLOP/s for *edges* under *backend* (see class
        docstring for the fallback ladder)."""
        flops = seconds = 0.0
        for edge in edges:
            sample = self._fwd.get((edge, backend))
            if sample is not None and sample["flops"] > 0.0:
                flops += sample["flops"]
                seconds += sample["seconds"]
        if seconds > 0.0:
            return flops / seconds
        bucket = self._backend.get(backend)
        if bucket is not None and bucket[1] > 0.0:
            return bucket[0] / bucket[1]
        return self.base_rate()

    def layer_sample(self, edges: Sequence[str], backend: str
                     ) -> Optional[Tuple[float, Shape3]]:
        """``(seconds per forward, profiled image shape)`` summed over
        *edges* under *backend*, or None unless *every* edge has a
        measured forward entry and all entries agree on the shape.

        The sum of per-edge mean wall-clocks is the layer's true
        steady-state forward cost at that shape — transform-cache
        sharing included, because the edge that pays the shared image
        FFT and the edges that hit the cache are summed as measured.
        """
        seconds = 0.0
        shape: Optional[Shape3] = None
        for edge in edges:
            sample = self._fwd.get((edge, backend))
            if sample is None or sample["image_shape"] is None:
                return None
            if shape is None:
                shape = sample["image_shape"]
            elif sample["image_shape"] != shape:
                return None
            seconds += sample["mean_seconds"]
        if shape is None:
            return None
        return seconds, shape


def _as_cost_model(cost_model) -> CostModel:
    if cost_model is None:
        return CostModel()
    if isinstance(cost_model, CostModel):
        return cost_model
    return CostModel(cost_model, source="doc")


# ---------------------------------------------------------------------------
# Candidate enumeration.
# ---------------------------------------------------------------------------

def enumerate_candidate_tiles(volume_shape: Sequence[int],
                              fov: Sequence[int],
                              tile_voxels: Optional[int] = None,
                              per_axis: int = MAX_AXIS_CANDIDATES
                              ) -> Tuple[Shape3, ...]:
    """The specializer's candidate input tiles for *volume_shape*.

    Per axis: the tiler's candidate lengths
    (:func:`repro.serving.tiler.axis_lengths`: the whole axis, the fov
    floor and the shortest 11-smooth length per tile count), thinned to
    *per_axis* values; the cross product is filtered by the
    *tile_voxels* input budget, and the tile the default planner picks
    (:func:`choose_tile_shape`) is always a candidate.  Raises
    :class:`PlanInfeasible` when the volume is below the fov or the
    budget cannot even cover a fov-sized tile.
    """
    if per_axis < 2:
        raise ValueError(f"per_axis must be >= 2, got {per_axis}")
    default = choose_tile_shape(volume_shape, fov, max_voxels=tile_voxels)
    v = as_shape3(volume_shape, name="volume_shape")
    f = as_shape3(fov, name="fov")
    if tile_voxels is None:
        tile_voxels = DEFAULT_TILE_VOXELS
    axes = []
    for lengths in (axis_lengths(vd, fd) for vd, fd in zip(v, f)):
        last = len(lengths) - 1  # thin evenly, keeping both endpoints
        axes.append([lengths[i] for i in sorted(
            {round(k * last / (per_axis - 1)) for k in range(per_axis)})])
    tiles: List[Shape3] = [(a, b, c) for a in axes[0] for b in axes[1]
                           for c in axes[2] if a * b * c <= tile_voxels]
    if default not in tiles:
        tiles.append(default)
    return tuple(tiles)


# ---------------------------------------------------------------------------
# Candidate evaluation: predicted seconds + working set.
# ---------------------------------------------------------------------------

def _layer_seconds(model: CostModel, edges: Sequence[str], backend: str,
                   layer_flops, shape: Shape3) -> float:
    """Predicted seconds for one conv layer under *backend* at *shape*.

    Preferred path: the layer's measured wall-clock per forward
    (:meth:`CostModel.layer_sample`) scaled by the analytic
    layer-formula ratio between the candidate shape and the profiled
    shape — *layer_flops* is that formula (the backend's Table II
    ``layer_flops`` as a function of shape), so the per-edge FLOP
    attribution (which double-counts cache-shared FFT transforms)
    never enters.  Fallback: the rate ladder over the same FLOPs.
    """
    flops = layer_flops(shape)
    sample = model.layer_sample(edges, backend)
    if sample is not None:
        seconds, profiled = sample
        reference = layer_flops(profiled)
        if reference > 0.0:
            return flops * seconds / reference
    return flops / model.rate(edges, backend)


def evaluate_candidate(twin: DenseTwin, volume_shape: Sequence[int],
                       tile: Sequence[int], cost_model=None) -> dict:
    """Price one candidate input *tile*: per-layer backend choice,
    predicted seconds over the whole volume, and peak working set.

    Pure and deterministic — this is the single cost function both
    :func:`plan_specialization` and the property-test minimality check
    evaluate, so the planner provably returns the argmin of exactly
    what this computes.  *twin* is the model's
    :func:`~repro.graph.builders.dense_twin`, built once by the caller.
    """
    model = _as_cost_model(cost_model)
    plan = TilePlan(volume_shape, twin.fov, tile)  # type: ignore[arg-type]
    t = plan.input_tile
    base_rate = model.base_rate()
    shape = t
    tile_seconds = 0.0
    working_set = _BYTES_REAL * voxels(t)
    conv_modes: Dict[str, str] = {}
    layer_rows: List[dict] = []
    for layer in twin.layers:
        out_shape = layer.output_shape(shape)
        working_set += _BYTES_REAL * layer.f_out * voxels(out_shape)
        if layer.kind == "conv":
            # Forward FLOPs with kernel spectra pinned: serving warm
            # models transform at the layer's input shape and transform
            # their frozen kernels at warm time.
            seconds = {
                name: _layer_seconds(
                    model, layer.edges, name,
                    lambda x: backend.layer_flops(
                        layer.f_in, layer.f_out, x, layer.window,
                        layer.sparsity, passes=("forward",),
                        pinned_kernels=True),
                    shape)
                for name, backend in registry.items()}
            # Strict comparison, ties to direct (bitwise-deterministic,
            # no spectra bookkeeping); the training autotuner
            # (core.autotune.autotune_layer) calls the same rule with
            # its 5% tolerance.
            mode = choose(seconds, 0.0)
            if registry[mode].spectral:
                working_set += (_BYTES_COMPLEX * voxels(rfft_shape(shape))
                                * (layer.f_in * layer.f_out
                                   + layer.f_in + layer.f_out))
            for edge in layer.edges:
                conv_modes[edge] = mode
            tile_seconds += seconds[mode]
            layer_rows.append({
                "layer": layer.index,
                "mode": mode,
                "f_in": layer.f_in,
                "f_out": layer.f_out,
                "kernel": list(layer.window),
                "sparsity": list(layer.sparsity),
                "input_shape": list(shape),
                **{f"{name}_seconds": s for name, s in seconds.items()},
            })
        elif layer.kind == "filter":
            tile_seconds += (layer.f_in
                             * filter_task_cost(shape, layer.window)
                             / base_rate)
        else:  # transfer / dropout: n^3 pointwise
            tile_seconds += (layer.f_in * transfer_task_cost(shape)
                             / base_rate)
        shape = out_shape
    predicted_seconds = tile_seconds * plan.num_tiles
    dense_voxels = voxels(plan.dense_shape)
    return {
        "input_tile": t,
        "fov": twin.fov,
        "num_tiles": plan.num_tiles,
        "conv_modes": conv_modes,
        "layers": layer_rows,
        "tile_seconds": tile_seconds,
        "predicted_seconds": predicted_seconds,
        "predicted_voxels_per_second": (
            dense_voxels / predicted_seconds if predicted_seconds > 0.0
            else math.inf),
        "working_set_bytes": int(working_set),
    }


# ---------------------------------------------------------------------------
# The plan.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecializationPlan:
    """The chosen per-layer backend map and tile for one model.

    Frozen and built from tuples only, so it is hashable, picklable
    (fleet workers carry plans across process respawns) and
    JSON-stable.  ``conv_modes`` is the sorted ``(edge, mode)`` map the
    warm model must be built with; ``predicted_*`` fields are the cost
    model's forecast for ``volume_shape``, recorded for observability
    (they are *inputs* to the decision, not promises).
    """

    model: str
    volume_shape: Shape3
    fov: Shape3
    input_tile: Shape3
    num_tiles: int
    conv_modes: Tuple[Tuple[str, str], ...]
    layer_modes: Tuple[Tuple[int, str], ...]
    predicted_tile_seconds: float
    predicted_seconds: float
    predicted_voxels_per_second: float
    working_set_bytes: int
    tile_voxels: int
    memory_bytes: Optional[int]
    cost_model: str
    candidates: int

    @property
    def conv_mode_map(self) -> Dict[str, str]:
        return dict(self.conv_modes)

    def uses_fft(self) -> bool:
        return any(registry[mode].spectral for _, mode in self.conv_modes)

    def covers(self, volume_shape: Sequence[int]) -> bool:
        """Can a volume of this shape be served under this plan?  (The
        tile must fit the volume on every axis; the tile grid itself
        adapts per request.)"""
        try:
            shape = as_shape3(volume_shape, name="volume_shape")
        except (TypeError, ValueError):
            return False
        return all(vd >= td for vd, td in zip(shape, self.input_tile))

    def to_doc(self) -> dict:
        return {
            "schema": SPECIALIZE_SCHEMA,
            "model": self.model,
            "volume_shape": list(self.volume_shape),
            "fov": list(self.fov),
            "input_tile": list(self.input_tile),
            "num_tiles": self.num_tiles,
            "conv_modes": {edge: mode for edge, mode in self.conv_modes},
            "layer_modes": [[index, mode]
                            for index, mode in self.layer_modes],
            "predicted_tile_seconds": self.predicted_tile_seconds,
            "predicted_seconds": self.predicted_seconds,
            "predicted_voxels_per_second": self.predicted_voxels_per_second,
            "working_set_bytes": self.working_set_bytes,
            "tile_voxels": self.tile_voxels,
            "memory_bytes": self.memory_bytes,
            "cost_model": self.cost_model,
            "candidates": self.candidates,
        }

    # deterministic
    def to_json(self) -> str:
        """Canonical serialisation: sorted keys, fixed separators —
        byte-identical for equal plans (the purity contract)."""
        return json.dumps(self.to_doc(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_doc(cls, doc: dict) -> "SpecializationPlan":
        """Parse a :meth:`to_doc` document; raises ``ValueError``
        naming the first missing or malformed field."""
        if not isinstance(doc, dict):
            raise ValueError(f"plan document must be a dict, got "
                             f"{type(doc).__name__}")
        if doc.get("schema") != SPECIALIZE_SCHEMA:
            raise ValueError(
                f"schema must be {SPECIALIZE_SCHEMA!r}, got "
                f"{doc.get('schema')!r}")
        parsers = dict(
            model=str, volume_shape=tuple, fov=tuple, input_tile=tuple,
            num_tiles=int,
            conv_modes=lambda modes: normalize_conv_modes(dict(modes)),
            layer_modes=lambda pairs: tuple((int(i), str(m))
                                            for i, m in pairs),
            predicted_tile_seconds=float, predicted_seconds=float,
            predicted_voxels_per_second=float, working_set_bytes=int,
            tile_voxels=int,
            memory_bytes=lambda cap: None if cap is None else int(cap),
            cost_model=str, candidates=int)
        doc = {"memory_bytes": None, **doc}  # optional: no memory cap
        fields = {}
        for name, parse in parsers.items():
            try:
                fields[name] = parse(doc[name])
            except KeyError:
                raise ValueError(
                    f"plan field {name!r} is missing") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"plan field {name!r} is malformed "
                                 f"({exc}): {doc[name]!r}") from None
        return cls(**fields)

    @classmethod
    def from_file(cls, path: str) -> "SpecializationPlan":
        with open(path) as fh:
            return cls.from_doc(json.load(fh))


# deterministic
def plan_specialization(spec, volume_shape: Sequence[int],
                        cost_model=None,
                        tile_voxels: Optional[int] = None,
                        memory_bytes: Optional[int] = None
                        ) -> SpecializationPlan:
    """Choose the throughput-optimal per-layer backend map and input
    tile for serving *spec* on volumes of *volume_shape*.

    *spec* is a :class:`repro.serving.registry.ModelSpec`;
    *cost_model* is None (analytic: the paper's FLOP formulas at rate
    1.0), a validated ``repro.cost_model/v1`` dict, or a
    :class:`CostModel`.  *tile_voxels* caps the input tile (the
    tiler's budget); *memory_bytes* additionally caps the estimated
    peak working set of the whole twin.  Raises
    :class:`PlanInfeasible` when no candidate satisfies both.

    A pure function of its arguments: candidates are enumerated and
    priced deterministically, and ties break toward fewer tiles, then
    the larger tile, then lexicographically — so repeated runs emit
    byte-identical plan JSON.
    """
    if tile_voxels is None:
        tile_voxels = DEFAULT_TILE_VOXELS
    model = _as_cost_model(cost_model)
    twin = dense_twin(spec.spec, **spec.builder_kwargs)
    candidates = enumerate_candidate_tiles(
        volume_shape, twin.fov, tile_voxels=tile_voxels)
    best = None
    best_key = None
    over_budget = 0
    for tile in candidates:
        result = evaluate_candidate(twin, volume_shape, tile, model)
        if (memory_bytes is not None
                and result["working_set_bytes"] > memory_bytes):
            over_budget += 1
            continue
        key = (result["predicted_seconds"], result["num_tiles"],
               -voxels(tile), tile)
        if best_key is None or key < best_key:
            best, best_key = result, key
    if best is None:
        raise PlanInfeasible(
            f"no candidate tile fits the memory budget of "
            f"{memory_bytes} bytes ({over_budget} candidates tried; "
            f"smallest working sets exceed it)")
    layer_modes = tuple((row["layer"], row["mode"])
                        for row in best["layers"])
    return SpecializationPlan(
        model=spec.name,
        volume_shape=as_shape3(volume_shape, name="volume_shape"),
        fov=best["fov"],
        input_tile=best["input_tile"],
        num_tiles=best["num_tiles"],
        conv_modes=normalize_conv_modes(best["conv_modes"]),  # type: ignore[arg-type]
        layer_modes=layer_modes,
        predicted_tile_seconds=best["tile_seconds"],
        predicted_seconds=best["predicted_seconds"],
        predicted_voxels_per_second=best["predicted_voxels_per_second"],
        working_set_bytes=best["working_set_bytes"],
        tile_voxels=tile_voxels,
        memory_bytes=memory_bytes,
        cost_model=model.source,
        candidates=len(candidates),
    )
