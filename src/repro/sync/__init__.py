"""Mesa-style synchronisation objects for the simulated kernel.

Monitors, condition variables, and the CV-based building blocks the two
systems used everywhere: bounded and unbounded queues.
"""

from repro.sync.condition import ConditionVariable, await_condition
from repro.sync.monitor import Monitor, entered, monitored
from repro.sync.queues import BoundedQueue, UnboundedQueue

__all__ = [
    "BoundedQueue",
    "ConditionVariable",
    "Monitor",
    "UnboundedQueue",
    "await_condition",
    "entered",
    "monitored",
]
