"""Dense-inference serving: tiling planner, warm model cache, request
pipeline with backpressure, and in-process/HTTP clients.

The training side of the repo reproduces the paper; this package is the
ROADMAP's production leg — the path from "trained checkpoint" to
"answered request".  Volumes of any size are split into overlapping
FFT-fast tiles (:mod:`repro.serving.tiler`), run through warm
dense-equivalent twins (:mod:`repro.serving.registry`), and scheduled
through a bounded, work-conserving pipeline with explicit backpressure
(:mod:`repro.serving.pipeline`).  A multi-process, fault-tolerant
fleet (:mod:`repro.serving.fleet` + :mod:`repro.serving.supervisor`)
serves one FIFO of requests from N supervised worker processes — each
free worker takes the oldest request — with heartbeat health checks,
crash/hang failover, tiered load shedding and graceful drain.  See
``docs/serving.md``.
"""

from repro.serving.client import (
    HttpServingClient,
    ServingClient,
    decode_array,
    encode_array,
)
from repro.serving.fleet import FleetRequest, FleetServer
from repro.serving.http import ServingHTTPServer, serve_http
from repro.serving.lifecycle import (
    ADMISSION_FRACTIONS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    DeadlineExceeded,
    PendingRequest,
    ServerClosed,
    ServerDraining,
    ServerOverloaded,
    ServingError,
    admission_limit,
)
from repro.serving.pipeline import InferenceServer
from repro.serving.registry import ModelRegistry, ModelSpec, WarmModel
from repro.serving.specialize import (
    CostModel,
    SpecializationPlan,
    enumerate_candidate_tiles,
    evaluate_candidate,
    plan_specialization,
)
from repro.serving.supervisor import (
    Supervisor,
    SupervisorConfig,
    WorkerConfig,
)
from repro.serving.tiler import (
    DEFAULT_TILE_VOXELS,
    PlanInfeasible,
    TilePlan,
    choose_tile_shape,
    largest_fast_len,
    normalize_conv_modes,
    plan_volume,
    run_plan,
)

__all__ = [
    "FleetRequest",
    "FleetServer",
    "Supervisor",
    "SupervisorConfig",
    "WorkerConfig",
    "ADMISSION_FRACTIONS",
    "PRIORITY_HIGH",
    "PRIORITY_LOW",
    "PRIORITY_NORMAL",
    "ServerDraining",
    "admission_limit",
    "HttpServingClient",
    "ServingClient",
    "decode_array",
    "encode_array",
    "ServingHTTPServer",
    "serve_http",
    "DeadlineExceeded",
    "InferenceServer",
    "PendingRequest",
    "ServerClosed",
    "ServerOverloaded",
    "ServingError",
    "ModelRegistry",
    "ModelSpec",
    "WarmModel",
    "CostModel",
    "SpecializationPlan",
    "enumerate_candidate_tiles",
    "evaluate_candidate",
    "plan_specialization",
    "DEFAULT_TILE_VOXELS",
    "PlanInfeasible",
    "TilePlan",
    "choose_tile_shape",
    "largest_fast_len",
    "normalize_conv_modes",
    "plan_volume",
    "run_plan",
]
