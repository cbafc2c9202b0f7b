"""Temporal-locality analysis of simulated schedules (Section VI-A).

The paper's priority design argues two locality effects:

* "the strict ordering of the tasks with the same distance increases
  temporal locality by assuring that when multiple tasks with the same
  distance are scheduled we prefer to execute ones computing 3D images
  that have to be accumulated in the same sum";
* forcing updates right before the forward task that consumes their
  result "increases the memory locality".

We quantify the first effect on DES timelines: for each worker, walk
its executed tasks in order and count *switches* — consecutive
forward (or backward) tasks whose results accumulate into different
node sums.  Fewer switches per task means contributions to one sum run
back-to-back, keeping the accumulator hot in cache.  The benchmark
compares the priority policy against FIFO/LIFO/random on this metric.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.graph.computation_graph import ComputationGraph
from repro.simulate.des import SimulationResult

__all__ = ["LocalityReport", "accumulation_target", "locality_report"]


def accumulation_target(task_name: str,
                        graph: ComputationGraph) -> Optional[str]:
    """The node sum a task's result is accumulated into, or None for
    tasks that do not contribute to a sum (updates, FFT transforms,
    provider, loss gradients)."""
    kind, _, rest = task_name.partition(":")
    if kind in ("fwd", "prod_fwd"):
        edge = graph.edges.get(rest)
        return f"fwd-sum:{edge.dst}" if edge is not None else None
    if kind in ("bwd", "prod_bwd"):
        edge = graph.edges.get(rest)
        return f"bwd-sum:{edge.src}" if edge is not None else None
    return None


@dataclass(frozen=True)
class LocalityReport:
    """Sum-locality statistics of one simulated schedule.

    Tasks are ordered by start time *globally* — the accumulator buffer
    lives in the shared cache, so what matters is how many distinct
    sums are touched in any short span of execution, regardless of
    which core ran which contribution.
    """

    accumulating_tasks: int
    switches: int
    mean_working_set: float

    @property
    def switch_rate(self) -> float:
        """Sum switches per accumulating task (lower = better
        locality)."""
        if self.accumulating_tasks == 0:
            return 0.0
        return self.switches / self.accumulating_tasks


def locality_report(result: SimulationResult,
                    graph: ComputationGraph,
                    window: int = 32) -> LocalityReport:
    """Compute sum-locality statistics from a recorded timeline.

    ``mean_working_set`` is the average number of *distinct* sums
    touched per consecutive window of *window* accumulating tasks —
    roughly, how many partial-sum buffers compete for cache at once.
    """
    if not result.timeline:
        raise ValueError("simulate with record_timeline=True first")
    ordered = sorted(result.timeline, key=lambda st: st.start)
    targets = []
    for st in ordered:
        target = accumulation_target(st.name, graph)
        if target is not None:
            targets.append(target)
    switches = sum(1 for a, b in zip(targets, targets[1:]) if a != b)
    if len(targets) >= window:
        sets = [len(set(targets[i:i + window]))
                for i in range(0, len(targets) - window + 1, window)]
        working = sum(sets) / len(sets)
    else:
        working = float(len(set(targets)))
    return LocalityReport(accumulating_tasks=len(targets),
                          switches=switches,
                          mean_working_set=working)
