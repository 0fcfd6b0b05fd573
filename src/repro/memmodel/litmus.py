"""Litmus tests: reachable-outcome enumeration per memory model.

The classic four-test battery — SB (store buffering), MP (message
passing), LB (load buffering), IRIW (independent reads of independent
writes) — run as tiny kernel scenarios through the schedule-exploration
driver, so *every* source of nondeterminism (scheduler picks and
``mem.drain`` store-buffer commits alike) is enumerated rather than
sampled.  Each test carries a pinned expected-outcome table per model;
``enumerate_litmus`` reports the reachable set, and any outcome outside
the table is a violation (a soundness bug in the model).  It drives the
strategy through explore's own loop
(:func:`repro.explore.driver.run_strategy`), so every schedule is one
:func:`~repro.explore.driver.run_schedule` — the harness chaos and
explore share, invariant battery included.

What the tables show (see ``docs/MEMORY.md`` for the derivations):

* **SB** is the discriminating test: ``r0=r1=0`` requires both loads to
  bypass the other thread's buffered store — reachable under ``tso``
  and ``pso``, impossible under ``sc``.
* **MP** separates TSO from the §5.5 machine: the reorder outcome
  (flag observed, data missed) needs *store-store* reordering, which
  TSO's FIFO buffers forbid.  x86-TSO rescues the pointer-publication
  idiom; ``pso`` breaks it.
* **LB**'s relaxed outcome needs load-store reordering; no operational
  store-buffer model reaches it — all three tables coincide.
* **IRIW**'s disagreement outcome needs non-multi-copy-atomic stores;
  every model here commits to a single shared memory, so it stays
  unreachable everywhere.

Each (test, model) pair is a ``litmus``-tagged entry of the scenario
catalogue (:data:`repro.analysis.scenarios.SCENARIOS`) named
``litmus-<test>-<model>``, which is what makes a saved witness trace
replayable through ``python -m repro explore --replay`` (and ``python
-m repro litmus --replay``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

from repro.kernel import Kernel, KernelConfig
from repro.kernel import primitives as p
from repro.kernel.config import MEMORY_MODELS, MODEL_PSO, MODEL_SC, MODEL_TSO
from repro.kernel.memory import SimVar
from repro.kernel.simtime import msec, sec

#: The models the harness enumerates: every model on the seam, since
#: none draws nondeterminism from outside the decision seam.
MODELS = MEMORY_MODELS

#: An op is ("w", var, value) or ("r", var, register).
Op = tuple


def _all_outcomes(width: int) -> frozenset:
    outcomes = [()]
    for _ in range(width):
        outcomes = [prefix + (bit,) for prefix in outcomes for bit in (0, 1)]
    return frozenset(outcomes)


@dataclass(frozen=True)
class LitmusTest:
    """One litmus test: thread programs + pinned outcome tables."""

    name: str
    title: str
    variables: tuple[str, ...]
    threads: tuple[tuple[Op, ...], ...]
    registers: tuple[str, ...]
    #: model -> the exact reachable set of register tuples.
    expected: dict[str, frozenset]
    #: The outcome that distinguishes relaxed models from SC (shown in
    #: reports as "the interesting one"), and which models reach it.
    spotlight: tuple[int, ...]
    spotlight_models: tuple[str, ...]
    description: str = ""

    def relaxed_outcomes(self, model: str) -> frozenset:
        """Outcomes reachable under ``model`` but not under SC."""
        return self.expected[model] - self.expected[MODEL_SC]


SB = LitmusTest(
    name="sb",
    title="SB (store buffering)",
    variables=("x", "y"),
    threads=(
        (("w", "x", 1), ("r", "y", "r0")),
        (("w", "y", 1), ("r", "x", "r1")),
    ),
    registers=("r0", "r1"),
    expected={
        MODEL_SC: frozenset({(0, 1), (1, 0), (1, 1)}),
        MODEL_TSO: frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
        MODEL_PSO: frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
    },
    spotlight=(0, 0),
    spotlight_models=(MODEL_TSO, MODEL_PSO),
    description="each thread stores its flag then reads the other's; "
                "r0=r1=0 means both loads bypassed a buffered store — "
                "the one relaxation x86-TSO admits",
)

MP = LitmusTest(
    name="mp",
    title="MP (message passing)",
    variables=("x", "flag"),
    threads=(
        (("w", "x", 1), ("w", "flag", 1)),
        (("r", "flag", "r0"), ("r", "x", "r1")),
    ),
    registers=("r0", "r1"),
    expected={
        MODEL_SC: frozenset({(0, 0), (0, 1), (1, 1)}),
        MODEL_TSO: frozenset({(0, 0), (0, 1), (1, 1)}),
        MODEL_PSO: frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}),
    },
    spotlight=(1, 0),
    spotlight_models=(MODEL_PSO,),
    description="§5.5 publication: writer fills data then raises a flag; "
                "seeing the flag but stale data needs store-store "
                "reordering — forbidden by TSO's FIFO, allowed by PSO",
)

LB = LitmusTest(
    name="lb",
    title="LB (load buffering)",
    variables=("x", "y"),
    threads=(
        (("r", "y", "r0"), ("w", "x", 1)),
        (("r", "x", "r1"), ("w", "y", 1)),
    ),
    registers=("r0", "r1"),
    expected={
        MODEL_SC: frozenset({(0, 0), (0, 1), (1, 0)}),
        MODEL_TSO: frozenset({(0, 0), (0, 1), (1, 0)}),
        MODEL_PSO: frozenset({(0, 0), (0, 1), (1, 0)}),
    },
    spotlight=(1, 1),
    spotlight_models=(),
    description="each thread loads then stores crosswise; r0=r1=1 needs "
                "load-store reordering, unreachable in any operational "
                "store-buffer model — a negative pin",
)

IRIW = LitmusTest(
    name="iriw",
    title="IRIW (independent reads of independent writes)",
    variables=("x", "y"),
    threads=(
        (("w", "x", 1),),
        (("w", "y", 1),),
        (("r", "x", "r0"), ("r", "y", "r1")),
        (("r", "y", "r2"), ("r", "x", "r3")),
    ),
    registers=("r0", "r1", "r2", "r3"),
    expected={
        MODEL_SC: _all_outcomes(4) - {(1, 0, 1, 0)},
        MODEL_TSO: _all_outcomes(4) - {(1, 0, 1, 0)},
        MODEL_PSO: _all_outcomes(4) - {(1, 0, 1, 0)},
    },
    spotlight=(1, 0, 1, 0),
    spotlight_models=(),
    description="two readers disagreeing on the order of independent "
                "writes needs non-multi-copy-atomic stores; every model "
                "here commits to one shared memory — a negative pin",
)

LITMUS_TESTS: dict[str, LitmusTest] = {t.name: t for t in (SB, MP, LB, IRIW)}

#: Sim-time horizon per schedule; litmus threads finish in microseconds.
_HORIZON = msec(20)
#: Store-buffer delay inside litmus runs: effectively infinite, so
#: buffered stores commit *only* through mem.drain decisions (or a
#: fence) — aging would otherwise collapse the reachable set toward SC.
_LITMUS_DELAY = sec(3600)


def _make_build(
    test: LitmusTest, model: str, state: dict
) -> Callable[[KernelConfig], tuple]:
    def build(config: KernelConfig):
        config.ncpus = 1
        config.memory_model = model
        config.store_buffer_delay = _LITMUS_DELAY
        config.switch_cost = 0
        state.clear()
        for register in test.registers:
            state[register] = 0
        kernel = Kernel(config)
        variables = {name: SimVar(f"{test.name}.{name}", 0) for name in test.variables}

        def make_body(ops: tuple[Op, ...]):
            def body():
                for op in ops:
                    if op[0] == "w":
                        yield p.MemWrite(variables[op[1]], op[2])
                    else:
                        state[op[2]] = yield p.MemRead(variables[op[1]])
                    yield p.Yield()

            return body

        for index, ops in enumerate(test.threads):
            kernel.fork_root(make_body(ops), name=f"{test.name}.t{index}", priority=4)
        return kernel, kernel.shutdown

    return build


def _make_check(
    test: LitmusTest, model: str, state: dict
) -> Callable[[Kernel], list[str]]:
    allowed = test.expected[model]

    def check(kernel: Kernel) -> list[str]:
        outcome = tuple(state[register] for register in test.registers)
        state["outcome"] = outcome
        if outcome not in allowed:
            return [
                f"litmus {test.name}: outcome {outcome} is outside the "
                f"pinned {model} table — the model is unsound"
            ]
        return []

    return check


_scenario_cache: dict[tuple[str, str], tuple[Any, dict]] = {}


def litmus_scenario(test_name: str, model: str) -> tuple[Any, dict]:
    """The catalogue ``Scenario`` for one (test, model) pair plus the
    shared register-state dict its builds write into.  Cached so the
    catalogue entry and the enumerator share one state closure."""
    key = (test_name, model)
    cached = _scenario_cache.get(key)
    if cached is not None:
        return cached
    # Imported here: the catalogue imports this module to list the pairs.
    from repro.analysis.scenarios import Scenario

    test = LITMUS_TESTS[test_name]
    if model not in test.expected:
        raise KeyError(f"no pinned table for model {model!r}")
    state: dict = {}
    scenario = Scenario(
        name=f"litmus-{test_name}-{model}",
        build=_make_build(test, model, state),
        horizon=_HORIZON,
        check=_make_check(test, model, state),
        tags=("litmus",),
        description=f"{test.title} under {model}: every outcome must stay "
                    "inside the pinned table",
    )
    _scenario_cache[key] = (scenario, state)
    return scenario, state


def default_plan(test_name: str, model: str) -> tuple[str, int]:
    """The default (strategy, budget) for one (test, model) pair.

    SB/MP/LB trees exhaust in at most a few hundred schedules, so DFS
    gives the exact reachable set.  IRIW's tree is 25k schedules under
    sc and ~400k under tso/pso (4 threads x drain interleavings) —
    there the seeded random walk covers all 15 reachable outcomes in
    well under 2000 schedules, and soundness (the forbidden outcome
    staying out) is checked on every run either way.
    """
    if test_name == "iriw":
        return "random", 2000
    return "exhaustive", 30000


@dataclass
class LitmusResult:
    """Reachable-outcome verdict for one (test, model) pair."""

    test: str
    model: str
    strategy: str
    budget: int
    runs: int = 0
    exhausted: bool = False
    #: outcome -> the ScheduleOutcome of its first witness schedule.
    witnesses: dict = field(default_factory=dict)
    #: Outcomes the check rejected (outside the pinned table).
    forbidden: list = field(default_factory=list)
    harness_failures: list = field(default_factory=list)

    @property
    def reached(self) -> frozenset:
        return frozenset(self.witnesses)

    @property
    def expected(self) -> frozenset:
        return LITMUS_TESTS[self.test].expected[self.model]

    @property
    def ok(self) -> bool:
        """Sound (nothing forbidden, no harness failure) and — when the
        space was searched to exhaustion — complete."""
        if self.forbidden or self.harness_failures:
            return False
        if self.exhausted:
            return self.reached == self.expected
        return self.reached <= self.expected

    def to_dict(self) -> dict:
        return {
            "test": self.test,
            "model": self.model,
            "strategy": self.strategy,
            "budget": self.budget,
            "runs": self.runs,
            "exhausted": self.exhausted,
            "reached": sorted(self.reached),
            "expected": sorted(self.expected),
            "missing": sorted(self.expected - self.reached),
            "forbidden": [list(outcome) for outcome, _ in self.forbidden],
            "harness_failures": list(self.harness_failures),
            "ok": self.ok,
        }


def enumerate_litmus(
    test_name: str,
    model: str,
    *,
    strategy: str = "exhaustive",
    budget: int = 3000,
    seed: int = 0,
) -> LitmusResult:
    """Enumerate reachable outcomes of one litmus test under one model.

    With the default exhaustive strategy the decision tree is searched
    depth-first until ``budget`` schedules or exhaustion; ``random`` and
    ``pct`` sample instead (useful for quick sweeps of the big IRIW
    tree).  Every run's outcome is checked against the pinned table —
    an outcome outside it is a soundness violation regardless of
    strategy.
    """
    from repro.explore.driver import run_strategy
    from repro.explore.strategies import make_strategy

    scenario, state = litmus_scenario(test_name, model)
    search = make_strategy(strategy, seed=seed)
    result = LitmusResult(
        test=test_name, model=model, strategy=search.name, budget=budget
    )
    for outcome in run_strategy(scenario, search, budget=budget, seed=seed):
        result.runs += 1
        registers = state.get("outcome")
        if outcome.harness_failures:
            result.harness_failures.append(
                {"index": outcome.index, "failures": list(outcome.harness_failures)}
            )
        if outcome.violation is not None:
            result.forbidden.append((registers, outcome.violation))
        elif registers is not None and registers not in result.witnesses:
            result.witnesses[registers] = outcome
    result.exhausted = search.exhausted
    return result
