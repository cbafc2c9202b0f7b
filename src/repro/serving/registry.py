"""Model registry and warm dense-twin cache.

A serving process answers requests with the *dense-equivalent twin*
(Fig 2) of a trained max-pooling network: max-filtering layers plus
skip-kernel convolutions computing the sliding-window output in one
pass.  Building that twin — graph construction, parameter restore,
FFT kernel transforms — is far too slow to repeat per request, so the
registry keeps **warm models**: fully-built twins per
``(model name, input tile shape)``, kept in an LRU cache.

Warm means warm all the way down:

* the checkpoint is loaded once (trainable edge names are stable under
  the P→M substitution, so a pooling-net checkpoint restores directly
  into the twin without ever instantiating the pooling net);
* the network's :class:`~repro.tensor.fft_cache.TransformCache` has the
  ``"ker"`` kind *pinned* and a throwaway forward pass is run at build
  time, so in FFT mode every kernel spectrum is transformed exactly
  once per warm model, not once per request or per twin (the serving
  analogue of the paper's per-round memoization);
* the tile shape is fixed per warm model (networks have static shapes),
  which is why the tiler quantises volumes onto shared tile shapes.

Networks are not reentrant: :meth:`WarmModel.run` checks one of the
model's identical twins out per call (ZNNi: several instances, not one
task-parallel net).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple, TypeVar

import numpy as np

from repro.analysis.runtime import make_condition, make_lock
from repro.core.network import Network
from repro.core.serialization import load_network
from repro.core.tiling import TWIN_MIN_VOXELS
from repro.graph.builders import dense_twin
from repro.graph.specfile import load_layered_kwargs
from repro.observability.metrics import get_registry
from repro.serving.specialize import SpecializationPlan
from repro.serving.tiler import (
    DEFAULT_TILE_VOXELS,
    TilePlan,
    normalize_conv_modes,
    plan_volume,
    run_plan,
)
from repro.tensor.backends import conv_backend
from repro.utils.shapes import Shape3, as_shape3, voxels

T = TypeVar("T")

__all__ = ["ModelSpec", "WarmModel", "ModelRegistry", "TWIN_MIN_VOXELS"]


@dataclass(frozen=True)
class ModelSpec:
    """Everything needed to (re)build one servable model.

    ``builder_kwargs`` are the layered-builder arguments *minus* the
    spec string (``width``, ``kernel``, ``window``, ...); serving
    always builds :func:`~repro.graph.builders.dense_twin`'s twin,
    which ignores a ``skip_kernels`` flag or ``sparsity_schedule`` the
    training spec carried.

    ``seed`` fixes the weight initialisation when no checkpoint is
    given.  A spec must rebuild to the *same* network wherever and
    whenever it is built — fleet workers each build their own copy,
    and a restarted worker rebuilds from scratch; unseeded random
    weights would silently break the failover bitwise-identity
    contract for checkpoint-less models.
    """

    name: str
    spec: str
    checkpoint: Optional[str] = None
    conv_mode: str = "fft"
    builder_kwargs: Dict[str, object] = field(default_factory=dict)
    seed: int = 0

    @classmethod
    def from_files(cls, name: str, spec_path, checkpoint: Optional[str] = None,
                   conv_mode: str = "fft", seed: int = 0) -> "ModelSpec":
        """Load a :class:`ModelSpec` from a ``[layered]`` spec file."""
        kwargs = dict(load_layered_kwargs(spec_path))
        spec = str(kwargs.pop("spec"))
        return cls(name=name, spec=spec, checkpoint=checkpoint,
                   conv_mode=conv_mode, builder_kwargs=kwargs, seed=seed)

    @property
    def fov(self) -> Shape3:
        """Field of view of the dense twin (per-axis minimum input)."""
        return dense_twin(self.spec, **self.builder_kwargs).fov


class WarmModel:
    """A pool of identical dense twins at one fixed input-tile shape.

    Construction does all the slow work for the first twin, ``network``:
    graph build, checkpoint restore, kernel-spectrum pinning plus a
    prewarming forward pass.  :meth:`run` then only pays the FFTs of
    the request's tiles (below :data:`TWIN_MIN_VOXELS`, stacked), on a
    free twin; from that size a busy pool builds one more twin that
    shares those spectra.
    """

    def __init__(self, spec: ModelSpec, input_tile,
                 num_workers: int = 1,
                 conv_modes: Optional[Mapping[str, str]] = None) -> None:
        self.spec = spec
        self.input_tile = as_shape3(input_tile, name="input_tile")
        self._twin = dense_twin(spec.spec, **spec.builder_kwargs)
        self.fov = self._twin.fov
        #: Per-edge backend override (a specialization plan's mode map);
        #: None serves every conv edge in ``spec.conv_mode``.
        self.conv_modes = normalize_conv_modes(conv_modes)
        self._network_kwargs = dict(
            input_shape=self.input_tile, num_workers=num_workers,
            conv_mode=(dict(self.conv_modes) if self.conv_modes is not None
                       else spec.conv_mode),
            seed=spec.seed)
        self.network = self._build_twin(prewarm=True)
        self._grows = voxels(self.input_tile) >= TWIN_MIN_VOXELS
        self._cond = make_condition("serving.warm_model")
        self._free = [self.network]  # guarded-by: _cond
        self._twins = 1  # guarded-by: _cond
        self._closed = False  # guarded-by: _cond

    def _build_twin(self, first: Optional[Network] = None,
                    prewarm: bool = False) -> Network:
        """One twin; its kernel spectra shared with *first* or prewarmed."""
        network = Network(self._twin.build_graph(), **self._network_kwargs)
        if self.spec.checkpoint is not None:
            load_network(network, self.spec.checkpoint)
        # Kernels are frozen at serving time: pin their spectra past the
        # per-forward next_round().  An all-direct twin computes none, so
        # it skips pinning and the throwaway pass.
        if any(conv_backend(mode).spectral
               for mode in network.conv_modes.values()):
            network.cache.pin_kind("ker")
            if first is not None:
                network.cache.share_pinned(first.cache)
            elif prewarm:
                network.forward(np.zeros(self.input_tile, dtype=np.float64))
        return network

    def run(self, volume: np.ndarray, plan: Optional[TilePlan] = None,
            progress=None) -> np.ndarray:
        """Tiled dense inference over *volume* (thread-safe).

        With no *plan*, :meth:`plan` derives one for this model's
        fixed tile.
        """
        if plan is None:
            plan = self.plan(volume.shape)
        network = self._checkout()
        try:
            return run_plan(network, volume, plan, progress=progress)
        finally:
            self._checkin(network)

    def _checkout(self) -> Network:
        """A free twin; a new one if all are busy and the pool grows."""
        with self._cond:
            while not (self._free or self._grows or not self._twins):
                self._cond.wait()
            if self._free:
                return self._free.pop()
            # Built under the lock: rare, and the count cannot drift.
            network = self._build_twin(first=self.network)
            self._twins += 1
            return network

    def _checkin(self, network: Network) -> None:
        with self._cond:
            self._cond.notify()
            if not self._closed:
                self._free.append(network)
                return
            self._twins -= 1
        network.close()

    def plan(self, volume_shape) -> TilePlan:
        """A :class:`~repro.serving.tiler.TilePlan` of *volume_shape*
        using this model's fixed tile (no tile-shape search)."""
        return TilePlan(volume_shape, self.fov, self.input_tile,
                        conv_modes=self.conv_modes)

    def close(self) -> None:
        """Close idle twins now, busy ones as their runs return."""
        with self._cond:
            self._closed = True
            idle, self._free = self._free, []
            self._twins -= len(idle)
            self._cond.notify_all()
        for network in idle:
            network.close()


class ModelRegistry:
    """Named model specs plus an LRU cache of warm models.

    The cache key is ``(model name, input tile shape, mode signature)``:
    the same model served at two tile shapes — or under two
    specialization mode maps — is two warm entries (networks have
    static shapes and static per-edge backends).  ``max_models`` bounds
    the number of warm models held; building past the cap evicts the
    least-recently-used entry and closes its twins (a busy one as its
    run returns).  All mutation
    happens under one lock — a build can take a while, but serialising
    builds also deduplicates them, and steady-state requests only pay a
    dict hit.

    A model may additionally carry one
    :class:`~repro.serving.specialize.SpecializationPlan`
    (:meth:`set_plan`); the pipeline and :meth:`prewarm_all` then build
    its warm twin at the plan's tile with the plan's per-edge modes.
    Every warm model it builds is prewarmed (:class:`WarmModel`): its
    kernel spectra are pinned before the first request.
    """

    def __init__(self, max_models: int = 4, num_workers: int = 1) -> None:
        if max_models < 1:
            raise ValueError(f"max_models must be >= 1, got {max_models}")
        self.max_models = max_models
        self.num_workers = num_workers
        self._lock = make_lock("serving.registry")
        self._specs: Dict[str, ModelSpec] = {}  # guarded-by: _lock
        self._fovs: Dict[str, Shape3] = {}  # guarded-by: _lock
        self._plans: Dict[str, SpecializationPlan] = {}  # guarded-by: _lock
        self._warm: Dict[Tuple[str, Shape3, Optional[tuple]], WarmModel] = {}  # guarded-by: _lock
        reg = get_registry()
        self._m_hit = reg.counter("serving.model_cache.hit")
        self._m_miss = reg.counter("serving.model_cache.miss")
        self._m_evicted = reg.counter("serving.model_cache.evicted")
        self._m_entries = reg.gauge("serving.model_cache.entries")
        self._m_specialized = reg.counter("serving.requests.specialized")

    def register(self, spec: ModelSpec) -> ModelSpec:
        """Add (or replace) a model spec; replacing invalidates any
        warm twins built from the old spec — and any specialization
        plan, which was costed for the old spec's graph.  The dense
        twin's field of view is computed here, once per registration."""
        fov = spec.fov
        with self._lock:
            previous = self._specs.get(spec.name)
            self._specs[spec.name] = spec
            self._fovs[spec.name] = fov
            stale = []
            if previous is not None and previous != spec:
                self._plans.pop(spec.name, None)
                stale = [k for k in self._warm if k[0] == spec.name]
                for key in stale:
                    self._warm.pop(key).close()
                    self._m_evicted.inc()
                self._m_entries.set(len(self._warm))
        return spec

    def set_plan(self, plan: SpecializationPlan) -> SpecializationPlan:
        """Attach a specialization plan to its (registered) model.

        The pipeline serves every ``plan.covers()``-compatible request
        for that model under the plan's tile and per-edge modes from
        now on; requests the plan cannot cover (a volume smaller than
        the plan's tile) fall back to the generic single-mode path.
        """
        with self._lock:
            self._lookup_locked(self._specs, plan.model)
            self._plans[plan.model] = plan
        return plan

    def plan_for(self, name: str) -> Optional[SpecializationPlan]:
        with self._lock:
            return self._plans.get(name)

    def plans(self) -> list:
        """Every attached plan (model-name-sorted copy) — the fleet
        restart contract's companion to :meth:`specs`: plans are
        picklable, so a respawned worker re-specializes exactly as the
        dead one did."""
        with self._lock:
            return [self._plans[name] for name in sorted(self._plans)]

    def model_names(self):
        with self._lock:
            return sorted(self._specs)

    def specs(self) -> list:
        """Every registered :class:`ModelSpec` (name-sorted copy).

        This is the fleet supervisor's restart contract: specs are
        picklable, so a respawned worker process rebuilds (and
        re-prewarms) exactly the models the dead worker served.
        """
        with self._lock:
            return [self._specs[name] for name in sorted(self._specs)]

    def prewarm_all(self, volume_shape,
                    tile_voxels: int = DEFAULT_TILE_VOXELS) -> dict:
        """Build the warm twin of every registered model at the tile
        shape a *volume_shape* request would use.

        Returns ``{model name: input tile}``.  A restarted fleet worker
        calls this before reporting ready, so the first request it
        serves after a crash pays no cold-build latency.  Models with a
        specialization plan covering *volume_shape* prewarm at the
        plan's tile and per-edge modes — the twin the pipeline will
        actually use.
        """
        return {name: self.resolve(name, volume_shape,
                                   tile_voxels)[1].input_tile
                for name in self.model_names()}

    def resolve(self, name: str, volume_shape,
                tile_voxels: int = DEFAULT_TILE_VOXELS
                ) -> Tuple[WarmModel, TilePlan]:
        """The warm twin and tile plan a *volume_shape* request for
        *name* is served with — the one place the rule lives.

        A specialization plan that ``covers()`` the shape wins: its
        tile and per-edge backend map (ZNNi per-layer specialization;
        the twin stamps the mode map on the returned
        :class:`TilePlan`, so ``run_plan`` re-verifies the pairing and
        ``plan.conv_modes is not None`` tells the two paths apart).
        Otherwise the generic single-mode path: the tile
        :func:`plan_volume` picks under *tile_voxels*.
        """
        splan = self.plan_for(name)
        if splan is not None and splan.covers(volume_shape):
            warm = self.warm(name, splan.input_tile,
                             conv_modes=splan.conv_mode_map)
            return warm, warm.plan(volume_shape)
        plan = plan_volume(volume_shape, self.fov(name),
                           max_voxels=tile_voxels)
        return self.warm(name, plan.input_tile), plan

    def run(self, name: str, volume: np.ndarray,
            tile_voxels: int = DEFAULT_TILE_VOXELS) -> np.ndarray:
        """:meth:`resolve`, then :meth:`WarmModel.run`: the body of
        every request, in the in-process server and a fleet worker."""
        warm, plan = self.resolve(name, volume.shape, tile_voxels)
        if plan.conv_modes is not None:
            self._m_specialized.inc()
        return warm.run(volume, plan)

    def spec(self, name: str) -> ModelSpec:
        with self._lock:
            return self._lookup_locked(self._specs, name)

    def fov(self, name: str) -> Shape3:
        """*name*'s dense-twin field of view, as :meth:`register`
        computed it."""
        with self._lock:
            return self._lookup_locked(self._fovs, name)

    def _lookup_locked(self, table: Mapping[str, T], name: str) -> T:
        try:
            return table[name]
        except KeyError:
            raise KeyError(f"unknown model {name!r}; registered: "
                           f"{sorted(self._specs)}") from None

    def warm(self, name: str, input_tile,
             conv_modes: Optional[Mapping[str, str]] = None) -> WarmModel:
        """The warm twin of *name* at *input_tile* (and, optionally, a
        specialization mode map), building on miss."""
        tile = as_shape3(input_tile, name="input_tile")
        signature = normalize_conv_modes(conv_modes)
        key = (name, tile, signature)
        with self._lock:
            model = self._warm.get(key)
            if model is not None:
                # Refresh recency: re-insert at the MRU end.
                del self._warm[key]
                self._warm[key] = model
                self._m_hit.inc()
                return model
            spec = self._lookup_locked(self._specs, name)
            self._m_miss.inc()
            model = WarmModel(spec, tile, num_workers=self.num_workers,
                              conv_modes=signature)
            while len(self._warm) >= self.max_models:
                _, evicted = self._pop_lru_locked()
                evicted.close()
                self._m_evicted.inc()
            self._warm[key] = model
            self._m_entries.set(len(self._warm))
            return model

    def _pop_lru_locked(self) -> Tuple[tuple, WarmModel]:
        key = next(iter(self._warm))
        return key, self._warm.pop(key)

    def __len__(self) -> int:
        with self._lock:
            return len(self._warm)

    def close(self) -> None:
        """Close every warm model and forget the cache."""
        with self._lock:
            warm = list(self._warm.values())
            self._warm.clear()
            self._m_entries.set(0)
        for model in warm:
            model.close()
