"""Counterexample minimization: shrink a failing schedule to its core.

A failing :class:`DecisionTrace` from a random walk is long and mostly
noise — hundreds of decisions, of which perhaps one actually matters.
Minimization replays the scenario with ever-smaller forced prefixes
(everything past the prefix falls to choice 0, the baseline):

1. **Prefix binary search** — find the shortest forced prefix that still
   fails.  Failing is monotone in practice (forcing more of a failing
   schedule keeps it failing), which is what makes bisection sound; the
   final greedy pass does not depend on monotonicity.
2. **Greedy sparsification** — try zeroing each remaining non-baseline
   decision (deepest first); keep the zero whenever the schedule still
   fails.
3. **Trim** — trailing baseline decisions force nothing; drop them.

The result is the minimal forced-choice list plus a determinism proof:
two fresh replays of the final trace must produce byte-identical run
fingerprints (trace hash and stats hash).  Because fault decisions
default to per-decision forked streams (not a shared sequential
stream), forcing a prefix cannot shift any unforced decision — replays
are stable under shrinking by construction; the double replay verifies
it end to end.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.explore.driver import ScheduleOutcome, run_schedule
from repro.analysis.scenarios import Scenario
from repro.explore.trace import TAIL_BASELINE, ScheduleController


@dataclass
class MinimizedCounterexample:
    scenario: str
    seed: int
    #: The minimal forced-choice list (positional, baseline tail).
    choices: list
    #: Outcome of replaying exactly ``choices``.
    outcome: ScheduleOutcome
    #: The violation message the minimal schedule produces.
    violation: str = ""
    #: Run fingerprint of the minimal schedule's replay.
    replay_hash: dict = field(default_factory=dict)
    #: True iff two independent replays fingerprint identically.
    deterministic: bool = False
    #: Replays spent minimizing (budget accounting).
    replays: int = 0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "choices": list(self.choices),
            "violation": self.violation,
            "replay_hash": dict(self.replay_hash),
            "deterministic": self.deterministic,
            "replays": self.replays,
        }

    def render(self) -> str:
        """Human-readable interleaving of the minimal schedule."""
        header = (
            f"minimal counterexample for {self.scenario!r} "
            f"(seed {self.seed}, {len(self.choices)} forced decisions, "
            f"{'deterministic' if self.deterministic else 'UNSTABLE'})\n"
            f"violation: {self.violation}\n"
        )
        return header + self.outcome.trace.render()


def replay(
    scenario: Scenario, choices, *, seed: int = 0
) -> ScheduleOutcome:
    """Run ``scenario`` forcing ``choices`` positionally, baseline tail."""
    controller = ScheduleController(force=list(choices), tail=TAIL_BASELINE)
    return run_schedule(scenario, controller, seed=seed)


def minimize(
    scenario: Scenario,
    failing: ScheduleOutcome,
    *,
    progress: "Callable[[str], None] | None" = None,
) -> "MinimizedCounterexample | None":
    """Shrink ``failing``'s trace to a minimal forced schedule.

    Returns None when the full recorded trace does not reproduce the
    violation under forced replay (a recorder/replayer divergence —
    itself a bug, surfaced rather than masked).
    """
    say = progress or (lambda line: None)
    seed = failing.seed
    replays = 0

    def fails(choices) -> "ScheduleOutcome | None":
        nonlocal replays
        if replays >= 500:  # the shrinking budget
            return None
        replays += 1
        outcome = replay(scenario, choices, seed=seed)
        return outcome if outcome.violation is not None else None

    full = failing.trace.choices
    baseline = fails(full)
    if baseline is None:
        say(f"minimize: full trace ({len(full)} decisions) does not replay")
        return None

    # 1. Shortest failing prefix, by bisection.
    lo, hi = 0, len(full)
    while lo < hi:
        mid = (lo + hi) // 2
        if fails(full[:mid]) is not None:
            hi = mid
        else:
            lo = mid + 1
    choices = list(full[:hi])

    # 2. Greedy sparsification: zero surviving non-baseline decisions.
    for position in range(len(choices) - 1, -1, -1):
        if choices[position] == 0:
            continue
        candidate = choices[:position] + [0] + choices[position + 1:]
        if fails(candidate) is not None:
            choices = candidate

    # 3. Trailing zeros force nothing.
    while choices and choices[-1] == 0:
        choices.pop()

    # Determinism proof: two fresh replays, identical fingerprints.
    first = replay(scenario, choices, seed=seed)
    second = replay(scenario, choices, seed=seed)
    replays += 2
    deterministic = (
        first.violation is not None
        and first.violation == second.violation
        and first.fingerprint == second.fingerprint
    )
    say(
        f"minimize: {len(full)} -> {len(choices)} decisions "
        f"({sum(1 for c in choices if c)} non-baseline) in {replays} replays"
    )
    return MinimizedCounterexample(
        scenario=scenario.name,
        seed=seed,
        choices=choices,
        outcome=first,
        violation=first.violation or "",
        replay_hash=first.fingerprint,
        deterministic=deterministic,
        replays=replays,
    )
