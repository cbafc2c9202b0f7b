"""The data-parallel trainer holds no shared-memory segments.

Gradients, losses and parameters travel over the worker pipes, so a
``ParallelTrainer`` — even with a spawned worker — must never create a
``psm_*`` entry in ``/dev/shm``: not while constructing, not in the
middle of a round, not after ``close()``.  The test only lists the
directory, so it assumes no other process creates segments while it
runs (the suite runs its tests one at a time).  It spawns one worker
(about a second), and stays in the tier-1 run because a leak is only
visible at process scope.
"""

import os

import pytest

from repro.data.provider import RandomProvider
from repro.parallel import ModelConfig, ParallelTrainer

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
