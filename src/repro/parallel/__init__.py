"""Multi-process data-parallel training (see ``docs/parallel.md``).

The paper scales one training round across threads of a shared-memory
machine; this package scales *rounds of a global minibatch* across
**processes**, sidestepping the GIL while keeping ZNN's determinism
guarantee: the final checkpoint is bitwise identical for any worker
count, because per-sample gradients come back over each worker's pipe
keyed by global sample index and are reduced in that fixed order by
:func:`repro.sync.summation.reduce_in_order` — the cross-process
extension of Algorithm 4's summation buffers.

* :class:`ParallelTrainer` — the coordinator: owns the canonical
  network, spawns workers, assigns shards, reduces gradients, applies
  the optimizer step, and degrades to fewer shards when a worker dies.
* :class:`ModelConfig` — a picklable recipe from which every process
  builds an identical network replica.
* :class:`Replica` — one process's network plus the gradient-capture
  machinery (parameters flattened into a canonical layout).
"""

from repro.parallel.replica import GradientCollector, ModelConfig, Replica
from repro.parallel.trainer import (
    ParallelTrainer,
    WorkerPoolBroken,
    visible_cpus,
)

__all__ = [
    "GradientCollector",
    "ModelConfig",
    "ParallelTrainer",
    "Replica",
    "WorkerPoolBroken",
    "visible_cpus",
]
