"""Exploration strategies: who answers the decision points.

Each strategy produces one :class:`ScheduleController` per schedule and
observes the resulting trace, so stateful strategies (the exhaustive
enumerator, PCT's length estimate) can steer the next schedule.  All
are pure functions of their seed — an exploration run is as replayable
as a single schedule.

* :class:`RandomWalkStrategy` — every decision uniform over its
  alternatives, an independent stream per schedule.  The workhorse:
  fault sites fire ~50% per opportunity regardless of plan rates, so
  rare interleavings are dense in its sample space.
* :class:`PctStrategy` — probabilistic concurrency testing (Burckhardt
  et al.): each schedule assigns random exploration priorities to
  threads, always picks the highest-priority candidate at scheduler
  sites, and demotes the running choice at ``PCT_DEPTH`` random change
  points.  Bugs of "depth" d are found with probability >= 1/(n * k^d).
  Fault sites fall through to the plan's own (per-decision-forked)
  sampling.
* :class:`SeedSweepStrategy` — the pre-exploration baseline: default
  decisions, a different kernel seed per schedule.
* :class:`ExhaustivePrefixStrategy` — complete lexicographic DFS over
  the decision tree up to ``EXHAUSTIVE_HORIZON`` decisions: run the
  all-baseline schedule, then repeatedly increment the deepest
  incrementable decision and reset the tail to baseline.  Visits every
  schedule of the bounded tree exactly once; ``exhausted`` flips when
  done.
"""

from __future__ import annotations

from typing import Callable

from repro.kernel.rng import DeterministicRng
from repro.explore.trace import (
    TAIL_BASELINE,
    TAIL_DEFAULT,
    DecisionPoint,
    DecisionTrace,
    ScheduleController,
)

#: PCT's bug depth ``d``: change points per schedule.
PCT_DEPTH = 3
#: Decisions deep the exhaustive enumerator varies; later ones stay at
#: their baseline.
EXHAUSTIVE_HORIZON = 64


class Strategy:
    """Base: one controller per schedule index, plus feedback."""

    name = "strategy"
    #: Set by enumerating strategies when the space is fully explored.
    exhausted = False

    def controller(self, index: int) -> ScheduleController:
        raise NotImplementedError

    def observe(self, trace: DecisionTrace) -> None:
        """Called after each schedule with its recorded trace."""

    def kernel_seed(self, index: int, base_seed: int) -> int:
        """The kernel seed for schedule ``index`` (default: fixed)."""
        return base_seed


class RandomWalkStrategy(Strategy):
    name = "random"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed

    def controller(self, index: int) -> ScheduleController:
        rng = DeterministicRng(self._seed).fork(f"walk:{index}")

        def chooser(point: DecisionPoint) -> int:
            return rng.randint(0, point.n - 1)

        return ScheduleController(chooser=chooser, tail=TAIL_DEFAULT)


class PctStrategy(Strategy):
    name = "pct"

    def __init__(self, seed: int = 0) -> None:
        self._seed = seed
        #: Rolling estimate of schedule length (decision count) used to
        #: place change points; refined from each observed trace.
        self._length_estimate = 32

    def controller(self, index: int) -> ScheduleController:
        rng = DeterministicRng(self._seed).fork(f"pct:{index}")
        priorities: dict[str, float] = {}
        span = max(self._length_estimate, PCT_DEPTH, 1)
        change_points = {rng.randint(0, span - 1) for _ in range(PCT_DEPTH)}
        state = {"sched_decisions": 0, "demotions": 0}

        def priority_of(label: str) -> float:
            if label not in priorities:
                priorities[label] = rng.uniform()
            return priorities[label]

        def chooser(point: DecisionPoint) -> "int | None":
            # Scheduler picks and store-buffer drains are both "which
            # thread steps next" choices; faults follow the plan's own
            # (per-decision-forked) sampling.
            if not (point.site.startswith("sched.") or point.site == "mem.drain"):
                return None
            if not point.labels:
                return None
            best = max(range(point.n), key=lambda i: priority_of(point.labels[i]))
            if state["sched_decisions"] in change_points:
                # A change point: the chosen thread falls to the bottom
                # of the exploration order from here on.
                state["demotions"] += 1
                priorities[point.labels[best]] = -float(state["demotions"])
            state["sched_decisions"] += 1
            return best

        return ScheduleController(chooser=chooser, tail=TAIL_DEFAULT)

    def observe(self, trace: DecisionTrace) -> None:
        if len(trace):
            self._length_estimate = max(len(trace), 1)


class SeedSweepStrategy(Strategy):
    name = "seeds"

    def controller(self, index: int) -> ScheduleController:
        return ScheduleController(tail=TAIL_DEFAULT)

    def kernel_seed(self, index: int, base_seed: int) -> int:
        return base_seed + index


class ExhaustivePrefixStrategy(Strategy):
    name = "exhaustive"

    def __init__(self) -> None:
        self._next_prefix: "list[int] | None" = []

    def controller(self, index: int) -> ScheduleController:
        if self._next_prefix is None:
            raise RuntimeError("exploration space exhausted")
        return ScheduleController(force=self._next_prefix, tail=TAIL_BASELINE)

    def observe(self, trace: DecisionTrace) -> None:
        choices = trace.choices
        ns = [d.n for d in trace.decisions]
        # Lexicographic successor with baseline tails: bump the deepest
        # incrementable decision (within the horizon), drop everything
        # after it.  When nothing can be bumped, the bounded tree is
        # fully visited.
        for j in range(min(len(choices), EXHAUSTIVE_HORIZON) - 1, -1, -1):
            if choices[j] + 1 < ns[j]:
                self._next_prefix = choices[:j] + [choices[j] + 1]
                return
        self._next_prefix = None
        self.exhausted = True


#: The one place a strategy is named (``make_strategy`` and both
#: ``--strategy`` options read it): name -> factory taking the seed.
STRATEGIES: dict[str, Callable[[int], Strategy]] = {
    "random": RandomWalkStrategy,
    "pct": PctStrategy,
    "seeds": lambda seed: SeedSweepStrategy(),
    "exhaustive": lambda seed: ExhaustivePrefixStrategy(),
}


def make_strategy(name: str, *, seed: int = 0) -> Strategy:
    """Instantiate a strategy by name (seed passed where taken)."""
    try:
        factory = STRATEGIES[name]
    except KeyError:
        raise ValueError(f"unknown strategy: {name!r}") from None
    return factory(seed)
