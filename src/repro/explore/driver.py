"""The exploration loop: schedules in, verdicts and counterexamples out.

One *schedule* = one deterministic kernel run of a scenario with a
:class:`ScheduleController` answering every decision point.  Each
schedule runs under the full invariant harness (the chaos checks plus a
race-detector sweep), so exploration is not just hunting the scenario's
expected bug — any schedule that leaks a monitor hold, loses a waits-for
cycle, or fails to reconcile stats is itself a finding.

Dead schedules terminate early two ways:

* the waits-for watchdog confirms a cycle (``stop_when`` fires on the
  very sweep that found it), and
* the all-waiting check: no thread is ready or running, no event or
  timeout is pending, and every live thread is blocked in a state only
  another thread could release — the schedule can never make progress
  again, so there is no point grinding fault ticks to the horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.chaos import check_invariants
from repro.analysis.golden import fingerprint
from repro.analysis.scenarios import Scenario
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
    """One controlled run of ``scenario`` under ``controller``."""
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
        except Exception as error:  # noqa: BLE001 - a forced schedule
            # surfaced a workload bug; report it, don't crash the sweep.
            outcome.harness_failures.append(f"run aborted: {error!r}")
        outcome.stopped_at = kernel.now
        if kernel.watchdog is not None:
            kernel.watchdog.check(kernel.now)  # final sweep before verdicts
        outcome.violation = "; ".join(scenario.check(kernel)) or None
        outcome.harness_failures.extend(
            check_invariants(kernel, expect_deadlock=False)
        )
        if kernel.race_detector is not None and kernel.race_detector.races:
            outcome.harness_failures.extend(
                f"data race: {race}" for race in kernel.race_detector.races
            )
        outcome.fingerprint = fingerprint(kernel)
    finally:
        shutdown()
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
    for index in range(budget):
        if strategy.exhausted:
            result.exhausted = True
            break
        controller = strategy.controller(index)
        outcome = run_schedule(
            scenario,
            controller,
            seed=strategy.kernel_seed(index, seed),
            index=index,
        )
        result.schedules_run += 1
        strategy.observe(outcome.trace)
        if outcome.harness_failures:
            result.harness_failures.append(
                {"index": index, "failures": list(outcome.harness_failures)}
            )
            say(f"{scenario.name}[{index}]: HARNESS {outcome.harness_failures}")
            result._ok = False
            return result
        if outcome.violation is not None:
            if scenario.expect is not None:
                say(f"{scenario.name}[{index}]: found: {outcome.violation}")
                result.found = outcome
                result.minimized = minimize(scenario, outcome, progress=say)
                result._ok = (
                    result.minimized is not None
                    and result.minimized.deterministic
                )
                return result
            say(f"{scenario.name}[{index}]: UNEXPECTED {outcome.violation}")
            result.unexpected = outcome
            result._ok = False
            return result
    if scenario.expect is not None:
        say(f"{scenario.name}: budget exhausted, violation NOT found")
        result._ok = False
    else:
        say(f"{scenario.name}: {result.schedules_run} schedules clean")
        result._ok = True
    return result
