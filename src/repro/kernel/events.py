"""The kernel's timed-event heap.

Everything that happens "later" in the simulation — scheduler ticks, device
arrivals posted by workload generators, deferred callbacks — is an entry in
this heap.  Entries at equal times fire in insertion order (the sequence
number breaks ties), which keeps runs deterministic.

CV timeouts and Pause() deadlines deliberately do *not* get their own heap
entries: PCR's timeout granularity is the scheduler tick, so the kernel
checks timed waiters at each tick instead (see Kernel._on_tick).  That is
the mechanism behind Section 6.3's observation that the 50 ms quantum
"clocks" timeout-driven behaviour.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

#: An event action receives the kernel as its only argument.
EventAction = Callable[[Any], None]


class EventHeap:
    """A deterministic time-ordered queue of kernel callbacks."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, EventAction]] = []
        #: Events pushed so far.  Each push's count breaks time ties, and
        #: the kernel reads it to learn that the heap may have gained an
        #: earlier head (see ``Kernel._resume``).
        self.pushes = 0

    def push(self, when: int, action: EventAction) -> None:
        """Schedule ``action`` at absolute time ``when``."""
        if when < 0:
            raise ValueError("event time must be >= 0")
        heapq.heappush(self._heap, (when, self.pushes, action))
        self.pushes += 1

    def clear(self) -> None:
        """Drop every pending event (the kernel shuts down)."""
        self._heap.clear()

    def next_time(self) -> int | None:
        """The time of the earliest pending event, or None if empty."""
        heap = self._heap
        return heap[0][0] if heap else None

    def pop_due(self, now: int) -> list[EventAction]:
        """Remove and return every action scheduled at or before ``now``.

        Returned in (time, insertion) order.
        """
        heap = self._heap
        due: list[EventAction] = []
        while heap and heap[0][0] <= now:
            due.append(heapq.heappop(heap)[2])
        return due
