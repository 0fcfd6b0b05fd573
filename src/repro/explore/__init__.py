"""Systematic schedule exploration over the kernel's decision points.

The kernel is deterministic in its seed, which makes single runs
reproducible but leaves every *other* legal schedule unexamined.  This
package turns each nondeterministic choice the kernel (or its fault
injector) makes into a recorded, forcible decision, then searches the
space of schedules for invariant violations and shrinks what it finds
to a minimal, replayable counterexample.

Layers:

* :mod:`repro.explore.trace` — :class:`DecisionTrace` (the record) and
  :class:`ScheduleController`, which forces, chooses and records the
  decisions ``Kernel.decide`` numbers;
* :mod:`repro.explore.strategies` — random walk, PCT, seed sweep,
  exhaustive bounded enumeration;
* :mod:`repro.explore.driver` — the per-schedule harness every tool
  runs entries through (chaos, explore, litmus, ``--replay``), its
  invariant battery, and the one strategy loop;
* :mod:`repro.explore.minimize` — prefix bisection + greedy
  sparsification down to a minimal forced schedule.

What to explore, and what counts as a violation, comes from the
scenario catalogue (:mod:`repro.analysis.scenarios`).

Entry point: ``python -m repro explore`` (see ``docs/EXPLORATION.md``).
"""

from repro.explore.driver import (
    ExploreResult,
    ScheduleOutcome,
    all_waiting,
    explore,
    run_schedule,
)
from repro.explore.minimize import MinimizedCounterexample, minimize, replay
from repro.explore.strategies import (
    STRATEGIES,
    ExhaustivePrefixStrategy,
    PctStrategy,
    RandomWalkStrategy,
    SeedSweepStrategy,
    Strategy,
    make_strategy,
)
from repro.explore.trace import (
    TAIL_BASELINE,
    TAIL_DEFAULT,
    Decision,
    DecisionPoint,
    DecisionTrace,
    ScheduleController,
)

__all__ = [
    "Decision",
    "DecisionPoint",
    "DecisionTrace",
    "ExhaustivePrefixStrategy",
    "ExploreResult",
    "MinimizedCounterexample",
    "PctStrategy",
    "RandomWalkStrategy",
    "STRATEGIES",
    "ScheduleController",
    "ScheduleOutcome",
    "SeedSweepStrategy",
    "Strategy",
    "TAIL_BASELINE",
    "TAIL_DEFAULT",
    "all_waiting",
    "explore",
    "make_strategy",
    "minimize",
    "replay",
    "run_schedule",
]
