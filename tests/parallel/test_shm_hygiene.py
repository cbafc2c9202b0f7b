"""Worker processes exchange no shared-memory segments.

Gradients, losses and parameters travel over the data-parallel
trainer's worker pipes, and volumes inside the serving fleet's pipe
messages, so neither a ``ParallelTrainer`` nor a ``FleetServer`` — each
with a spawned worker — may create a ``psm_*`` entry in ``/dev/shm``:
not while starting, not mid-round or mid-request, not after shutting
down.  The tests only list the directory, so they assume no other
process creates segments while they run (the suite runs its tests one
at a time).  Each spawns one worker (about a second), and they stay in
the tier-1 run because a leak is only visible at process scope.
"""

import os

import numpy as np
import pytest

from repro.data.provider import RandomProvider
from repro.parallel import ModelConfig, ParallelTrainer
from repro.serving import FleetServer, ModelSpec

SHM = "/dev/shm"
INPUT = (10, 10, 10)
CFG = ModelConfig(
    input_shape=INPUT,
    spec="CT",
    layered_kwargs={"width": 2, "kernel": 3, "transfer": "tanh",
                    "final_transfer": "tanh", "output_nodes": 1},
    loss="euclidean",
    seed=13)


def segments():
    return {name for name in os.listdir(SHM) if name.startswith("psm_")}


@pytest.mark.skipif(not os.path.isdir(SHM), reason="no /dev/shm")
def test_parallel_trainer_creates_no_shared_memory():
    before = segments()
    seen = []
    trainer = ParallelTrainer(CFG, RandomProvider,
                              (INPUT, (8, 8, 8), False, None),
                              workers=2, batch=4, worker_timeout=120.0)
    try:
        seen.append(segments())
        sample_gradient = trainer.replica.sample_gradient

        def listing_mid_round(*args):
            seen.append(segments())
            return sample_gradient(*args)

        trainer.replica.sample_gradient = listing_mid_round
        trainer.run(2)
        assert trainer.worker_deaths == 0
        seen.append(segments())
    finally:
        trainer.close()
    seen.append(segments())
    assert len(seen) > 3  # the mid-round listings ran
    for listing in seen:
        assert listing - before == set()


@pytest.mark.skipif(not os.path.isdir(SHM), reason="no /dev/shm")
def test_fleet_creates_no_shared_memory():
    before = segments()
    seen = []
    spec = ModelSpec(name="tiny", spec="CT", conv_mode="direct",
                     builder_kwargs={"width": [1], "kernel": 3,
                                     "transfer": "tanh"})
    fleet = FleetServer([spec], num_workers=1, prewarm_shape=INPUT)
    on_message = fleet._on_message

    def listing_on_reply(wid, message):
        seen.append(segments())
        on_message(wid, message)

    fleet._on_message = fleet.supervisor.on_message = listing_on_reply
    fleet.start(ready_timeout=120)
    try:
        seen.append(segments())
        volumes = np.random.default_rng(3).standard_normal((3,) + INPUT)
        pending = [fleet.submit("tiny", v, timeout=60.0)
                   for v in volumes]
        seen.append(segments())
        for request in pending:
            assert request.result(timeout=60.0).shape == (8, 8, 8)
        seen.append(segments())
    finally:
        fleet.stop()
    seen.append(segments())
    assert len(seen) > 6  # the mid-request listings ran
    for listing in seen:
        assert listing - before == set()
