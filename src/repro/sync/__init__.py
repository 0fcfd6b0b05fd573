"""Mesa-style synchronisation objects for the simulated kernel.

Monitors, condition variables, and the CV-based building blocks the two
systems used everywhere: bounded buffers, unbounded queues, latches,
reader-writer locks, and init-once.
"""

from repro.sync.condition import ConditionVariable, await_condition
from repro.sync.latch import Latch, TimeoutExpired
from repro.sync.monitor import Monitor, entered, monitored
from repro.sync.once import Once, RacyOnce
from repro.sync.queues import BoundedQueue, UnboundedQueue
from repro.sync.rwlock import ReadWriteLock

__all__ = [
    "BoundedQueue",
    "ConditionVariable",
    "Latch",
    "Monitor",
    "Once",
    "RacyOnce",
    "ReadWriteLock",
    "TimeoutExpired",
    "UnboundedQueue",
    "await_condition",
    "entered",
    "monitored",
]
