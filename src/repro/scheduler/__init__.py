"""Task scheduling and execution: priority engine, serial baseline,
FORCE protocol, alternative strategies."""

from repro.scheduler.autoselect import StrategyChoice, select_strategy
from repro.scheduler.engine import LOWEST_PRIORITY, TaskEngine, task_family
from repro.scheduler.serial import SerialEngine
from repro.scheduler.strategies import (
    SCHEDULER_FACTORIES,
    FifoScheduler,
    LifoScheduler,
    WorkStealingScheduler,
    make_scheduler,
)
from repro.scheduler.task import Task, TaskState, force

__all__ = [
    "StrategyChoice",
    "select_strategy",
    "LOWEST_PRIORITY",
    "TaskEngine",
    "task_family",
    "SerialEngine",
    "SCHEDULER_FACTORIES",
    "FifoScheduler",
    "LifoScheduler",
    "WorkStealingScheduler",
    "make_scheduler",
    "Task",
    "TaskState",
    "force",
]
