"""The per-schedule harness and the strategy loop.

:func:`run_schedule` is the one place a scenario-catalogue entry is
built, run and judged.  Chaos runs each entry under a sampled fault plan
for a fixed horizon, exploration and the litmus battery run it once per
strategy-chosen schedule, and both ``--replay`` commands run it under a
forcing controller — all through this function, so a schedule any of
them records replays through the same code.  One *schedule* is one
deterministic kernel run with a :class:`ScheduleController` answering
every decision point.  Each run is judged by the same battery: the
invariant checks (:func:`check_invariants`), a race-detector sweep when
the entry asks for one, and the entry's own ``check``.  A schedule that
leaks a monitor hold, loses a waits-for cycle, or fails to reconcile
stats is a finding whatever the entry expected.

Dead schedules terminate early two ways:

* the waits-for watchdog confirms a cycle (``stop_when`` fires on the
  very sweep that found it), and
* the all-waiting check: no thread is ready or running, no event or
  timeout is pending, and every live thread is blocked in a state only
  another thread could release — the schedule can never make progress
  again, so there is no point grinding fault ticks to the horizon.

:func:`run_strategy` is the one strategy loop: it asks a strategy for
one controller per schedule until the budget is spent or the decision
tree is exhausted.  :func:`explore` and the litmus enumerator
(:func:`repro.memmodel.litmus.enumerate_litmus`) both consume it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.analysis.golden import fingerprint
from repro.analysis.scenarios import Scenario
from repro.analysis.watchdog import waits_on
from repro.explore.strategies import Strategy
from repro.explore.trace import DecisionTrace, ScheduleController
from repro.kernel import Kernel, KernelConfig
from repro.kernel.thread import ThreadState


def all_waiting(kernel: Kernel) -> bool:
    """True when no live thread can ever run again.

    Conservative: any thread that could be woken by a pending event, a
    timeout, a fault tick (spurious wake of a CV waiter), or the fork
    release sweep keeps the schedule alive.
    """
    sched = kernel.scheduler
    if sched.ready_count() != 0:
        return False
    if any(cpu.current is not None for cpu in sched.cpus):
        return False
    if kernel.events.next_time() is not None:
        return False
    plan = kernel.config.fault_plan
    spurious_possible = plan is not None and plan.spurious_wakeup_prob > 0.0
    live = [t for t in kernel.threads.values() if t.alive]
    if not live:
        return False
    for thread in live:
        if thread.state in (ThreadState.BLOCKED_MONITOR, ThreadState.JOINING):
            continue
        untimed = thread.timed_epoch != thread.wait_epoch
        if thread.state is ThreadState.WAITING_CV and untimed:
            if spurious_possible:
                return False  # a fault tick could still wake it
            continue
        if thread.state is ThreadState.RECEIVING and untimed:
            continue  # nothing left to post to the channel
        return False
    return True


# ---------------------------------------------------------------------------
# The invariant battery
# ---------------------------------------------------------------------------

def _brute_force_cycles(kernel: Kernel) -> list[frozenset[int]]:
    """Independent waits-for cycle scan, sharing no state with the
    watchdog: every live thread is a start node, every edge re-derived."""
    cycles: list[frozenset[int]] = []
    seen: set[frozenset[int]] = set()
    for start in kernel.threads.values():
        if not start.alive:
            continue
        path: list[int] = []
        on_path: set[int] = set()
        node = start
        while node is not None and node.tid not in on_path:
            path.append(node.tid)
            on_path.add(node.tid)
            node = waits_on(node)
        if node is not None:
            cycle = frozenset(path[path.index(node.tid):])
            if cycle not in seen:
                seen.add(cycle)
                cycles.append(cycle)
    return cycles


def check_invariants(kernel: Kernel) -> list[str]:
    """The robustness invariants every run must hold, whatever its
    entry expects; returns human-readable violations.

    * **No leaked monitor holds.**  Every monitor a live thread holds
      names that thread as owner, and vice versa — even after injected
      kills, because generator unwinding runs ``finally`` clauses.
    * **Stats reconcile.**  ``threads_created == threads_finished +
      live``, and stack reservations track live threads exactly.
    * **Every partial deadlock is detected.**  An independent
      brute-force scan of the waits-for graph finds the cycles; each
      must already be in the watchdog's reports (the caller sweeps
      first).
    """
    failures: list[str] = []
    stats = kernel.stats

    # 1. Monitor-hold consistency (no leaks through kills/unwinds).
    monitors: dict[int, Any] = {}
    for thread in kernel.threads.values():
        for monitor in thread.held_monitors:
            monitors[monitor.uid] = monitor
            if not thread.alive:
                failures.append(
                    f"dead thread {thread.name!r} still lists "
                    f"monitor {monitor.name!r} as held"
                )
            elif monitor.owner is not thread:
                failures.append(
                    f"{thread.name!r} holds {monitor.name!r} but its owner "
                    f"is {getattr(monitor.owner, 'name', None)!r}"
                )
        candidate = thread.blocked_on
        if hasattr(candidate, "entry_queue") and hasattr(candidate, "owner"):
            monitors[candidate.uid] = candidate
    for monitor in monitors.values():
        owner = monitor.owner
        if owner is not None and monitor not in owner.held_monitors:
            failures.append(
                f"monitor {monitor.name!r} names owner {owner.name!r} "
                "which does not hold it"
            )

    # 2. Thread accounting reconciles.
    live = sum(1 for t in kernel.threads.values() if t.alive)
    if stats.live_threads != live:
        failures.append(
            f"live_threads={stats.live_threads} but {live} threads alive"
        )
    if stats.threads_created != stats.threads_finished + stats.live_threads:
        failures.append(
            f"created={stats.threads_created} != finished="
            f"{stats.threads_finished} + live={stats.live_threads}"
        )
    expected_stack = stats.live_threads * kernel.config.stack_reservation
    if stats.stack_bytes != expected_stack:
        failures.append(
            f"stack_bytes={stats.stack_bytes} != live*reservation="
            f"{expected_stack}"
        )

    # 3. Every waits-for cycle is in the watchdog's reports.
    if kernel.watchdog is not None:
        reported = {report.tids for report in kernel.watchdog.deadlocks}
        for cycle in _brute_force_cycles(kernel):
            if cycle not in reported:
                names = sorted(kernel.threads[tid].name for tid in cycle)
                failures.append(f"undetected waits-for cycle: {names}")
    return failures


# ---------------------------------------------------------------------------
# One schedule
# ---------------------------------------------------------------------------

@dataclass
class ScheduleOutcome:
    """Everything one explored schedule produced."""

    index: int
    seed: int
    trace: DecisionTrace
    #: The scenario's check failures, joined, when its check tripped.
    violation: "str | None" = None
    #: Generic invariant-harness failures (never acceptable).
    harness_failures: list = field(default_factory=list)
    #: Full-run fingerprint (trace + stats hashes) for replay checks.
    fingerprint: dict = field(default_factory=dict)
    #: Clock value when the run ended (< horizon means early stop).
    stopped_at: int = 0
    #: Injected faults by kind (``GlobalStats.fault_counts``).
    faults: dict = field(default_factory=dict)
    #: Watchdog reports after the final sweep.
    deadlocks: int = 0
    starvation: int = 0

    @property
    def failed(self) -> bool:
        return self.violation is not None or bool(self.harness_failures)


def run_schedule(
    scenario: Scenario,
    controller: ScheduleController,
    *,
    seed: int = 0,
    index: int = 0,
) -> ScheduleOutcome:
    """One controlled run of ``scenario`` under ``controller``: build it
    with its fault plan, the watchdog and (if the entry asks) the race
    detector, run it to its horizon or an early stop, judge it, and
    shut it down."""
    config = KernelConfig(
        seed=seed,
        fault_plan=scenario.plan,
        watchdog=True,
        race_detection=scenario.race_detection,
        schedule_controller=controller,
    )
    kernel, shutdown = scenario.build(config)
    outcome = ScheduleOutcome(index=index, seed=seed, trace=controller.trace)

    def stop_when(k: Kernel) -> bool:
        if k.watchdog is not None and k.watchdog.deadlocks:
            return True
        return all_waiting(k)

    try:
        try:
            kernel.run_until(
                scenario.horizon, raise_on_deadlock=False, stop_when=stop_when
            )
        except Exception as error:  # noqa: BLE001 - a fault or a forced
            # schedule surfaced a workload bug (e.g. a monitor held
            # without try/finally when a kill unwound it); that is a
            # finding, not a harness crash.
            outcome.harness_failures.append(f"run aborted: {error!r}")
        outcome.stopped_at = kernel.now
        watchdog = kernel.watchdog
        watchdog.check(kernel.now)  # final sweep before verdicts
        outcome.faults = dict(kernel.stats.fault_counts)
        outcome.deadlocks = len(watchdog.deadlocks)
        outcome.starvation = len(watchdog.starvation)
        outcome.harness_failures.extend(check_invariants(kernel))
        outcome.violation = "; ".join(scenario.check(kernel)) or None
        if kernel.race_detector is not None and kernel.race_detector.races:
            outcome.harness_failures.extend(
                f"data race: {race}" for race in kernel.race_detector.races
            )
        outcome.fingerprint = fingerprint(kernel)
    finally:
        shutdown()
    # Post-shutdown: everything returned.
    stats = kernel.stats
    if stats.live_threads != 0:
        outcome.harness_failures.append(
            f"after shutdown: live_threads={stats.live_threads}"
        )
    if stats.stack_bytes != 0:
        outcome.harness_failures.append(
            f"after shutdown: stack_bytes={stats.stack_bytes}"
        )
    return outcome


def run_strategy(
    scenario: Scenario, strategy: Strategy, *, budget: int, seed: int
) -> Iterator[ScheduleOutcome]:
    """Yield the outcome of each schedule ``strategy`` chooses, in
    order, until ``budget`` schedules have run or the strategy reports
    its space exhausted (read ``strategy.exhausted`` afterwards)."""
    for index in range(budget):
        if strategy.exhausted:
            return
        outcome = run_schedule(
            scenario,
            strategy.controller(index),
            seed=strategy.kernel_seed(index, seed),
            index=index,
        )
        strategy.observe(outcome.trace)
        yield outcome


# ---------------------------------------------------------------------------
# Exploration
# ---------------------------------------------------------------------------

@dataclass
class ExploreResult:
    """Verdict of exploring one scenario under one strategy."""

    scenario: str
    strategy: str
    budget: int
    schedules_run: int = 0
    exhausted: bool = False
    #: The first schedule whose expected violation tripped, if any.
    found: "ScheduleOutcome | None" = None
    #: Shrunk counterexample (:class:`MinimizedCounterexample`), if found.
    minimized: object = None
    #: Schedules that broke the generic harness (always a failure).
    harness_failures: list = field(default_factory=list)
    #: A clean scenario's violation, if one tripped (always a failure).
    unexpected: "ScheduleOutcome | None" = None

    #: Set by :func:`explore` once the verdict is known.
    _ok: bool = True

    @property
    def ok(self) -> bool:
        if self.harness_failures or self.unexpected is not None:
            return False
        return self._ok

    def to_dict(self) -> dict:
        out = {
            "scenario": self.scenario,
            "strategy": self.strategy,
            "budget": self.budget,
            "schedules_run": self.schedules_run,
            "exhausted": self.exhausted,
            "ok": self.ok,
            "harness_failures": list(self.harness_failures),
        }
        if self.found is not None:
            out["found_at"] = self.found.index
            out["violation"] = self.found.violation
            out["stopped_at"] = self.found.stopped_at
        if self.unexpected is not None:
            out["unexpected_at"] = self.unexpected.index
            out["unexpected"] = self.unexpected.violation
        if self.minimized is not None:
            out["minimized"] = self.minimized.to_dict()
        return out


def explore(
    scenario: Scenario,
    strategy: Strategy,
    *,
    budget: int = 200,
    seed: int = 0,
    progress: "Callable[[str], None] | None" = None,
) -> ExploreResult:
    """Drive ``strategy`` over ``scenario`` for up to ``budget`` schedules.

    Directed scenarios stop (successfully) at the first schedule whose
    expected violation trips, then shrink it; clean scenarios run the
    whole budget and fail on *any* violation.  Harness failures fail
    either kind immediately.
    """
    from repro.explore.minimize import minimize

    say = progress or (lambda line: None)
    result = ExploreResult(
        scenario=scenario.name, strategy=strategy.name, budget=budget
    )
    for outcome in run_strategy(scenario, strategy, budget=budget, seed=seed):
        index = outcome.index
        result.schedules_run += 1
        if outcome.harness_failures:
            result.harness_failures.append(
                {"index": index, "failures": list(outcome.harness_failures)}
            )
            say(f"{scenario.name}[{index}]: HARNESS {outcome.harness_failures}")
            result._ok = False
            break
        if outcome.violation is None:
            continue
        if scenario.expect is not None:
            say(f"{scenario.name}[{index}]: found: {outcome.violation}")
            result.found = outcome
            result.minimized = minimize(scenario, outcome, progress=say)
            result._ok = (
                result.minimized is not None and result.minimized.deterministic
            )
        else:
            say(f"{scenario.name}[{index}]: UNEXPECTED {outcome.violation}")
            result.unexpected = outcome
            result._ok = False
        break
    else:
        if scenario.expect is not None:
            say(f"{scenario.name}: budget exhausted, violation NOT found")
            result._ok = False
        else:
            say(f"{scenario.name}: {result.schedules_run} schedules clean")
    result.exhausted = strategy.exhausted
    return result
