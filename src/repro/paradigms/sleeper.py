"""Sleepers (Section 4.3): threads that wait for a trigger, run briefly,
and wait again.

"Sleepers are processes that repeatedly wait for a triggering event and
then execute ...  Often the triggering event is a timeout."  Examples the
paper lists: call this procedure in K seconds, blink the cursor, check
network timeouts, cache aging, the page-cleaning daemon.

Two implementations, matching Section 5.1's cost discussion:

* :class:`Sleeper` — one forked thread per sleeper.  Simple, but "100
  kilobytes for each of hundreds of sleepers' stacks is just too
  expensive";
* :class:`PeriodicalProcess` — one thread multiplexing many timed
  closures, "using closures to maintain the little bit of state necessary
  between activations".  This is the PeriodicalProcess module the paper
  says replaced FORKed sleepers.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable

from repro.kernel.primitives import GET_TIME, Compute, Pause
from repro.kernel.simtime import usec


class Sleeper:
    """A dedicated sleeper thread: Pause(period); work; repeat.

    ``work`` may be a plain callable (charged ``work_cost`` of CPU) or a
    generator function for work that itself uses kernel services.
    """

    def __init__(
        self,
        name: str,
        period: int,
        work: Callable[[], Any],
        *,
        work_cost: int = usec(100),
    ) -> None:
        if period < 0:
            raise ValueError("period must be >= 0")
        self.name = name
        self.period = period
        self.work = work
        self.work_cost = work_cost
        self.activations = 0

    def proc(self):
        while True:
            yield Pause(self.period)
            self.activations += 1
            yield from _run_work(self.work, self.work_cost)


class PeriodicalProcess:
    """Many logical sleepers multiplexed on one thread (one stack).

    Register closures with :meth:`add`; each runs every ``period``
    microseconds (first due one period after registration).  The single
    service thread sleeps until the earliest due closure — saving
    ``(n - 1) * stack_reservation`` bytes versus n forked sleepers, the
    §5.1 economy measured by the sleeper-stacks bench.
    """

    def __init__(self, name: str = "PeriodicalProcess") -> None:
        self.name = name
        self._schedule: list[tuple[int, int, dict]] = []
        self._counter = itertools.count()
        self.activations = 0

    def add(
        self,
        name: str,
        period: int,
        work: Callable[[], Any],
        *,
        work_cost: int = usec(100),
        start_at: int = 0,
    ) -> None:
        """Register a closure.  Must be called before the thread starts
        (or from inside one of its closures)."""
        if period <= 0:
            raise ValueError("period must be positive")
        entry = {
            "name": name,
            "period": period,
            "work": work,
            "work_cost": work_cost,
            "runs": 0,
        }
        heapq.heappush(
            self._schedule, (start_at + period, next(self._counter), entry)
        )

    @property
    def registered(self) -> int:
        return len(self._schedule)

    def proc(self):
        """Service thread body: sleep until the nearest due closure."""
        while self._schedule:
            due, _seq, entry = self._schedule[0]
            now = yield GET_TIME
            if due > now:
                yield Pause(due - now)
                now = yield GET_TIME
            heapq.heappop(self._schedule)
            self.activations += 1
            entry["runs"] += 1
            yield from _run_work(entry["work"], entry["work_cost"])
            heapq.heappush(
                self._schedule, (now + entry["period"], next(self._counter), entry)
            )


def _run_work(work: Callable[[], Any], work_cost: int):
    """Run a sleeper's work item: generator functions compose, plain
    callables are charged a flat CPU cost."""
    if work_cost:
        yield Compute(work_cost)
    result = work()
    if hasattr(result, "send"):  # a generator: run it on this thread
        yield from result
