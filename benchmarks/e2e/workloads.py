"""The four workloads: their networks, seeded inputs, closed loops and
correctness checks.

Every workload is described the same way: a layered spec, the builder
arguments, a convolution mode, a worker count and a cubic input edge.
A *train* workload trains the spec's dense twin on one input patch per
update; a *serve* workload pushes volumes of that edge through
``repro.serving``.  Because both are built from the same description,
the traced run can measure the training network *and* the serving path
of any workload (``probes.py``).

Only public names of ``repro`` are imported, and the program only ever
receives arrays: every input is generated here from ``--seed``.
"""

import math
import sys
import threading
import time
import traceback
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import SGD, Network, RandomProvider, build_layered_network
from repro.core import state_digest
from repro.graph import pool_to_filter_spec
from repro.serving import (InferenceServer, ModelRegistry, ModelSpec,
                           WarmModel, plan_volume)

from spans import span

#: Replies and forward passes must agree with their reference run
#: under these (ISSUE 12's correctness gate).
RTOL, ATOL = 1e-7, 1e-9
#: Volumes a serve workload cycles through.
POOL = 8
#: Server and load settings shared by both serve workloads: at most
#: ``nproc`` (= 2) client threads, each waiting for its reply.
SERVER_WORKERS = 2
SERVE_CLIENTS = 2
MAX_QUEUE = 16
LEARNING_RATE = 1e-4
MODEL_SEED = 0


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                     # "train" | "serve"
    spec: str
    builder: dict
    conv_mode: str = "fft"
    #: Engine workers of the network itself (1 is the SerialEngine):
    #: ``Network(num_workers=...)`` when training,
    #: ``ModelRegistry(num_workers=...)`` when serving.
    net_workers: int = 1
    #: Cubic edge of the input patch (train) or the volume (serve).
    edge: int = 36
    tile_voxels: Optional[int] = None
    warmup: int = 5

    @property
    def volume(self):
        return (self.edge,) * 3

    @property
    def clients(self):
        """Closed-loop load threads of the workload's own loop."""
        return 1 if self.kind == "train" else SERVE_CLIENTS


_TRAIN_NET = dict(width=8, kernel=3, window=2, transfer="tanh",
                  output_nodes=1)

WORKLOADS = {w.name: w for w in (
    Workload("train_direct_serial", "train", "CTMCTMCTCT", _TRAIN_NET,
             conv_mode="direct", net_workers=1),
    Workload("train_fft_threaded", "train", "CTMCTMCTCT", _TRAIN_NET,
             conv_mode="fft", net_workers=2),
    Workload("serve_tiled_48", "serve", "CTPCTPCT",
             dict(width=[4, 4, 1], kernel=3, window=2, transfer="tanh"),
             edge=48, tile_voxels=46656, warmup=8),
    Workload("serve_small_20", "serve", "CTPCT",
             dict(width=[2, 1], kernel=2, window=2, transfer="tanh"),
             edge=20, tile_voxels=2000, warmup=20),
)}


class GateFailure(Exception):
    """A correctness check that must hold before (or right after) the
    timed window failed; the run exits non-zero without a result."""


def percentile(values, q):
    """The *q*-th percentile (0..100) by linear interpolation between
    order statistics."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


# -- building blocks, shared with probes.py --------------------------------

def build_graph(wl):
    """The dense twin the workload trains or serves."""
    return build_layered_network(pool_to_filter_spec(wl.spec),
                                 skip_kernels=True, **wl.builder)


def model_spec(wl):
    return ModelSpec(wl.name, wl.spec, conv_mode=wl.conv_mode,
                     builder_kwargs=dict(wl.builder), seed=MODEL_SEED)


def tile_plan(wl):
    """How ``repro.serving`` tiles one volume of this workload; its
    ``input_tile`` is also the training network's input shape."""
    return plan_volume(wl.volume, model_spec(wl).fov,
                       max_voxels=wl.tile_voxels)


def build_network(wl, conv_mode=None, workers=None):
    return Network(build_graph(wl), input_shape=tile_plan(wl).input_tile,
                   conv_mode=conv_mode or wl.conv_mode,
                   num_workers=workers or wl.net_workers,
                   optimizer=SGD(learning_rate=LEARNING_RATE),
                   seed=MODEL_SEED)


def open_registry(wl):
    registry = ModelRegistry(num_workers=wl.net_workers)
    registry.register(model_spec(wl))
    return registry


def open_server(wl, registry, workers=SERVER_WORKERS):
    return InferenceServer(registry, num_workers=workers,
                           max_queue=MAX_QUEUE,
                           tile_voxels=wl.tile_voxels).start()


def sample_provider(network, seed):
    return RandomProvider(network.input_nodes[0].shape,
                          network.output_nodes[0].shape, seed=seed)


def make_volumes(wl, seed):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(wl.volume) for _ in range(POOL)]


def check_reply(reply, dense_shape):
    """A served reply is good when it is the dense output of its
    volume and every voxel is finite."""
    return (isinstance(reply, np.ndarray)
            and reply.shape == tuple(dense_shape)
            and bool(np.isfinite(reply).all()))


def reference_outputs(wl, seed):
    """What the gate compares against, computed the slow plain way:
    train, a direct-convolution single-worker twin's forward pass on
    the first sample; serve, a whole-volume (single-tile) run of the
    same ``ModelSpec`` on every pooled volume."""
    if wl.kind == "train":
        with build_network(wl, conv_mode="direct", workers=1) as net:
            x, _ = sample_provider(net, seed).sample()
            return [net.forward(x)[net.output_nodes[0].name]]
    whole = WarmModel(model_spec(wl), wl.volume)
    try:
        return [whole.run(volume) for volume in make_volumes(wl, seed)]
    finally:
        whole.close()


# -- sessions ---------------------------------------------------------------

class TrainSession:
    """One training network plus its sample stream."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.net = build_network(wl)
        self.provider = sample_provider(self.net, seed)
        self.out_name = self.net.output_nodes[0].name
        self.patch_voxels = int(np.prod(self.net.output_nodes[0].shape))
        self._digest = None

    @property
    def cache(self):
        return self.net.cache

    def warm_up(self, reference, count):
        x, _ = self.provider.sample()
        out = self.net.forward(x)[self.out_name]
        if not np.allclose(out, reference[0], rtol=RTOL, atol=ATOL):
            raise GateFailure(
                f"{self.wl.name}: forward pass in {self.wl.conv_mode} mode "
                f"with {self.wl.net_workers} worker(s) differs from the direct "
                f"single-worker twin")
        for index in range(count):
            ok, _ = self.op(index)
            if not ok:
                raise GateFailure(f"{self.wl.name}: warm-up update "
                                  f"{index} returned a non-finite loss")
        self._digest = state_digest(self.net)

    def op(self, index, recorder=None):
        with span(recorder, "data.sample", index):
            x, t = self.provider.sample()
        with span(recorder, "core.network.train_step", index):
            loss = self.net.train_step(x, t)
        return math.isfinite(loss), self.patch_voxels

    def finish(self, recorder=None):
        with span(recorder, "core.network.synchronize"):
            self.net.synchronize()

    def check_after(self):
        digest = state_digest(self.net)
        if digest == self._digest:
            raise GateFailure(f"{self.wl.name}: state digest unchanged by "
                              f"the timed updates; nothing was applied")
        self._digest = digest

    def replay(self, recorder):
        """One update taken apart: the calls ``op`` makes, plus the
        forward pass on its own."""
        with recorder.span("replay"):
            with recorder.span("data.sample"):
                x, t = self.provider.sample()
            with recorder.span("core.network.forward"):
                self.net.forward(x)
            with recorder.span("core.network.train_step"):
                self.net.train_step(x, t)
            with recorder.span("core.network.synchronize"):
                self.net.synchronize()

    def close(self):
        self.net.close()


class ServeSession:
    """One registry + in-process server and the pooled volumes."""

    def __init__(self, wl, seed):
        self.wl = wl
        self.plan = tile_plan(wl)
        self.registry = open_registry(wl)
        self.server = open_server(wl, self.registry)
        self.volumes = make_volumes(wl, seed)

    @property
    def cache(self):
        return self.registry.warm(self.wl.name,
                                  self.plan.input_tile).network.cache

    def warm_up(self, reference, count):
        for index in range(count):
            reply = self.server.infer(self.wl.name,
                                      self.volumes[index % POOL], timeout=60)
            if not check_reply(reply, self.plan.dense_shape):
                raise GateFailure(f"{self.wl.name}: warm-up reply {index} "
                                  f"is not a finite dense output")
            if index < POOL and not np.allclose(
                    reply, reference[index], rtol=RTOL, atol=ATOL):
                raise GateFailure(
                    f"{self.wl.name}: first tiled reply for volume {index} "
                    f"differs from the whole-volume run")

    def op(self, index, recorder=None):
        volume = self.volumes[index % POOL]
        with span(recorder, "serving.pipeline.infer", index):
            reply = self.server.infer(self.wl.name, volume, timeout=60)
        return check_reply(reply, self.plan.dense_shape), reply.size

    def finish(self, recorder=None):
        """Nothing is deferred: the window ends with the last reply."""

    def check_after(self):
        """Every reply was checked as it arrived."""

    def replay(self, recorder):
        """One request taken apart: what ``InferenceServer`` does after
        admission, called directly, then one tile's forward pass."""
        volume = self.volumes[0]
        with recorder.span("replay"):
            with recorder.span("serving.tiler.plan_volume"):
                plan = plan_volume(volume.shape,
                                   self.registry.fov(self.wl.name),
                                   max_voxels=self.wl.tile_voxels)
            with recorder.span("serving.registry.warm"):
                warm = self.registry.warm(self.wl.name, plan.input_tile)
            with recorder.span("serving.registry.run"):
                warm.run(volume, plan)
        tile = np.ascontiguousarray(
            volume[tuple(slice(0, t) for t in plan.input_tile)])
        with recorder.span("core.network.forward"):
            warm.network.forward(tile)

    def close(self):
        self.server.stop()
        self.registry.close()


def open_session(wl, seed):
    return (TrainSession if wl.kind == "train" else ServeSession)(wl, seed)


# -- the closed loop ----------------------------------------------------------

@dataclass
class LoopResult:
    samples: list          # per-op wall seconds, in completion order
    failed: int
    voxels: int            # output voxels of the ops that succeeded
    wall_s: float          # whole window, including ``finish``
    cpu_s: float           # process CPU seconds over the same window

    @property
    def attempted(self):
        return len(self.samples)


def merge_loops(loops):
    """Several windows of one workload as one result."""
    return LoopResult([s for loop in loops for s in loop.samples],
                      *(sum(getattr(loop, name) for loop in loops)
                        for name in ("failed", "voxels", "wall_s", "cpu_s")))


def closed_loop(op, seconds, clients=1, min_ops=3, finish=None,
                recorder=None):
    """Run ``op(index, recorder)`` from *clients* threads, each starting
    its next op only when the previous one returned, until *seconds*
    have passed and at least *min_ops* ops were started.

    ``op`` returns ``(ok, output_voxels)``; an op that raises or
    returns ``ok=False`` counts as failed.  With one client the loop
    runs in the calling thread.
    """
    lock = threading.Lock()
    state = {"next": 0, "failed": 0, "voxels": 0}
    samples = []

    def client():
        with span(recorder, "client"):
            while True:
                with lock:
                    index = state["next"]
                    if index >= min_ops and time.perf_counter() >= deadline:
                        return
                    state["next"] = index + 1
                start = time.perf_counter()
                try:
                    with span(recorder, "op", index):
                        ok, voxels = op(index, recorder)
                except Exception:
                    traceback.print_exc(file=sys.stderr)
                    ok, voxels = False, 0
                elapsed = time.perf_counter() - start
                with lock:
                    samples.append(elapsed)
                    if ok:
                        state["voxels"] += voxels
                    else:
                        state["failed"] += 1

    cpu_start = time.process_time()
    wall_start = time.perf_counter()
    deadline = wall_start + seconds
    if clients == 1:
        client()
    else:
        threads = [threading.Thread(target=client, name=f"client-{k}")
                   for k in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    if finish is not None:
        finish(recorder)
    return LoopResult(samples, state["failed"], state["voxels"],
                      time.perf_counter() - wall_start,
                      time.process_time() - cpu_start)
