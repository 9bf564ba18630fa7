"""FullRepair core: Algorithms 1 & 2, constraints."""

from . import constraints
from .fullnode import (
    FullNodeRepairPlan,
    StripeRepairSpec,
    plan_full_node_repair,
)
from .fullrepair import FullRepair
from .scheduling import ScheduleResult, Task, schedule_tasks
from .throughput import ThroughputResult, max_pipelined_throughput

__all__ = [
    "constraints",
    "FullNodeRepairPlan",
    "StripeRepairSpec",
    "plan_full_node_repair",
    "FullRepair",
    "ScheduleResult",
    "Task",
    "schedule_tasks",
    "ThroughputResult",
    "max_pipelined_throughput",
]
