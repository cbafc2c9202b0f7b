"""Machine simulation substrate: Table V machine models, discrete-event
list scheduler, Fig 5–7 speedup sweeps."""

from repro.simulate.des import (ScheduledTask, SimulationResult,
                                simulate_schedule)
from repro.simulate.locality import (
    LocalityReport,
    accumulation_target,
    locality_report,
)
from repro.simulate.machine import MACHINES, MachineSpec, get_machine
from repro.simulate.speedup import (
    PAPER_WIDTHS,
    default_thread_counts,
    max_speedup_vs_width,
    paper_graph_2d,
    paper_graph_3d,
    paper_task_graph,
)

__all__ = [
    "ScheduledTask",
    "SimulationResult",
    "simulate_schedule",
    "LocalityReport",
    "accumulation_target",
    "locality_report",
    "MACHINES",
    "MachineSpec",
    "get_machine",
    "PAPER_WIDTHS",
    "default_thread_counts",
    "max_speedup_vs_width",
    "paper_graph_2d",
    "paper_graph_3d",
    "paper_task_graph",
]
