"""The data-parallel worker process.

Spawned (never forked — NumPy and the scheduler do not survive a fork)
with a picklable :class:`repro.parallel.ModelConfig`, a provider
factory, and one end of a duplex pipe.  The worker builds its network
replica once, then loops:

    ("round", r, indices, params, ctx)
                           → load *params*, compute the gradient of
                             each assigned global sample and reply
                             ("grad", r, i, loss, gradient) as each one
                             finishes, then ("done", r).  With tracing
                             enabled the ``ctx`` (the coordinator's
                             round-span context, else None) parents
                             this worker's spans, which are shipped
                             back as ("spans", worker_id, payload) just
                             before the "done".
    ("stop",)              → close the network, exit 0.

Any exception is reported back as ``("error", r, traceback)`` rather
than crashing silently.  An installed :class:`FaultPlan` (inherited via
the ``REPRO_FAULTS`` environment variable) with family ``"worker"``
simulates a *hard crash*: the worker dies with ``os._exit`` — no error
message, no cleanup — which is what the coordinator's dead-worker
detection and shard reassignment are built to survive.
"""

from __future__ import annotations

import os
import traceback

import numpy as np

from repro.data.provider import ShardedSampler
from repro.observability.tracing import get_tracer
from repro.parallel.replica import ModelConfig, Replica
from repro.resilience.faults import CRASH_EXIT_CODE, InjectedFault, active_plan

__all__ = ["worker_main"]


def worker_main(worker_id: int, config: ModelConfig,
                provider_factory, provider_args: tuple,
                batch: int, conn) -> None:
    """Run one worker until told to stop (the spawn target)."""
    tracer = get_tracer()
    tracer.set_process(f"worker-{worker_id}")
    replica = None
    try:
        provider = provider_factory(*provider_args)
        sampler = ShardedSampler(provider, config.seed, batch)
        replica = Replica.from_config(config)
        grad = np.empty(replica.num_values)  # send() copies it out
        conn.send(("ready", worker_id))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, round_index, indices, params, round_ctx = message
            try:
                plan = active_plan()
                if plan is not None:
                    plan.check("worker", f"worker-{worker_id}")
                with tracer.activate(round_ctx):
                    with tracer.span("worker.round", category="training",
                                     round=round_index,
                                     samples=len(indices)):
                        replica.write_params_from(params)
                        for i in indices:
                            loss = replica.sample_gradient(
                                sampler, round_index, i, grad)
                            conn.send(("grad", round_index, i, loss, grad))
                if tracer.enabled:
                    # Ship this round's spans ahead of the barrier
                    # reply; the coordinator ingests them under this
                    # worker's process label.
                    conn.send(("spans", worker_id, tracer.drain()))
                conn.send(("done", round_index, worker_id))
            except InjectedFault:
                # Simulated hard crash: no goodbye, no cleanup.
                os._exit(CRASH_EXIT_CODE)
            except Exception:
                conn.send(("error", round_index, worker_id,
                           traceback.format_exc()))
    finally:
        if replica is not None:
            replica.network.close()
        conn.close()
