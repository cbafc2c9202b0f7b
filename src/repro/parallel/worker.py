"""The data-parallel worker process.

Spawned (never forked — NumPy and the scheduler do not survive a fork)
with a picklable :class:`repro.parallel.ModelConfig`, a provider
factory, shared-memory handles, and one end of a duplex pipe.  The
worker builds its network replica once, then loops:

    ("round", r, indices[, ctx])
                           → copy the published parameters in, compute
                             the gradient of each assigned global
                             sample into its shared slot, record the
                             loss, mark the slot filled, reply
                             ("done", r).  With tracing enabled the
                             optional ``ctx`` (the coordinator's
                             round-span context) parents this worker's
                             spans, which are shipped back as
                             ("spans", worker_id, payload) just before
                             the "done".
    ("stop",)              → detach shared memory, close the network,
                             exit 0.

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
from repro.memory.shared_pool import BlockHandle, attach_block
from repro.observability.tracing import get_tracer
from repro.parallel.replica import ModelConfig, Replica
from repro.parallel.summation import SharedOrderedSum, SumHandles
from repro.resilience.faults import CRASH_EXIT_CODE, InjectedFault, active_plan

__all__ = ["worker_main"]


def worker_main(worker_id: int, config: ModelConfig,
                provider_factory, provider_args: tuple,
                batch: int, sum_handles: SumHandles,
                params_handle: BlockHandle, losses_handle: BlockHandle,
                conn) -> None:
    """Run one worker until told to stop (the spawn target)."""
    tracer = get_tracer()
    tracer.set_process(f"worker-{worker_id}")
    grads = SharedOrderedSum.attach(sum_handles)
    params_block = attach_block(params_handle)
    losses_block = attach_block(losses_handle)
    replica = None
    try:
        provider = provider_factory(*provider_args)
        sampler = ShardedSampler(provider, config.seed, batch)
        replica = Replica.from_config(config)
        params = params_block.as_array(replica.num_values, np.float64)
        losses = losses_block.as_array(batch, np.float64)
        conn.send(("ready", worker_id))
        while True:
            message = conn.recv()
            if message[0] == "stop":
                break
            _, round_index, indices = message[:3]
            # 4th element (when present): the coordinator's round-span
            # context — adopt it so this worker's spans join the tree.
            round_ctx = message[3] if len(message) > 3 else None
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
                                sampler, round_index, i, grads.slot(i))
                            losses[i] = loss
                            grads.mark_filled(i)
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
        grads.close()
        params_block.close()
        losses_block.close()
        conn.close()
