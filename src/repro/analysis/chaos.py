"""Chaos sweep: workloads under sampled fault plans, with invariants.

``python -m repro chaos`` runs entries of the scenario catalogue
(:mod:`repro.analysis.scenarios`) under seeded :class:`FaultPlan`s —
stolen NOTIFYs, spurious wakeups, feigned FORK failures, thread kills,
timer jitter — with the waits-for watchdog on, and asserts the
robustness invariants the paper's systems earned the hard way:

* **No leaked monitor holds.**  Every monitor a live thread holds names
  that thread as owner, and vice versa — even after injected kills,
  because generator unwinding runs ``finally`` clauses.
* **Stats reconcile.**  ``threads_created == threads_finished + live``,
  and stack reservations track live threads exactly; after shutdown both
  ``live_threads`` and ``stack_bytes`` are zero.
* **Every partial deadlock is detected.**  After each run an independent
  brute-force scan of the waits-for graph (straight from thread state,
  sharing no bookkeeping with the watchdog) finds the cycles; each must
  already be in the watchdog's reports.
* **Directed deadlocks are found while the system lives.**  Two
  entries wedge a thread pair on purpose — one via the §5.3
  IF-instead-of-WHILE anti-pattern sprung by an injected spurious
  wakeup, one via a plain ABBA lock cycle — and the sweep asserts the
  watchdog reported exactly that cycle while an unrelated daemon kept
  running.
* **Each clean entry's own check holds.**  The directed cluster and
  cache entries assert what the generic invariants cannot see: a wedged
  shard trips the breaker and is congestion, not deadlock; a killed
  primary or balancer fails over losing nothing; single flight means
  one fetch per key in flight.
* **Faults off ≡ no faults.**  A plan with every rate at zero (plus the
  watchdog) must reproduce the pinned golden schedule hashes exactly,
  proving the injection seams are free when disarmed.

Directed runs are the ``chaos``-tagged entries (or a ``--scenario``
selection) under their own plan; sampled runs cycle through the
``sweep``-tagged entries.  The sweep is a pure function of its seed; the
JSON report it writes is the CI artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.analysis.faults import FaultPlan
from repro.analysis.scenarios import EXPECT_DEADLOCK, Scenario, resolve
from repro.analysis.watchdog import waits_on
from repro.kernel import Kernel, KernelConfig, msec, sec
from repro.kernel.rng import DeterministicRng
from repro.kernel.thread import ThreadState

#: Simulated time per chaos run.
CHAOS_RUN = sec(1)


# ---------------------------------------------------------------------------
# Fault-plan sampling
# ---------------------------------------------------------------------------

def sample_plan(rng: DeterministicRng) -> FaultPlan:
    """Draw one fault plan from the sweep's sampling distribution."""
    return FaultPlan(
        drop_notify_prob=rng.choice([0.0, 0.05, 0.2]),
        spurious_wakeup_prob=rng.choice([0.0, 0.05, 0.2]),
        fork_fail_prob=rng.choice([0.0, 0.1]),
        kill_thread_prob=rng.choice([0.0, 0.005, 0.02]),
        timer_jitter_prob=rng.choice([0.0, 0.3]),
        timer_jitter_max=msec(20),
        kill_immune=("SystemDaemon",),
    )


def plan_dict(plan: FaultPlan) -> dict:
    return {
        "drop_notify_prob": plan.drop_notify_prob,
        "spurious_wakeup_prob": plan.spurious_wakeup_prob,
        "fork_fail_prob": plan.fork_fail_prob,
        "kill_thread_prob": plan.kill_thread_prob,
        "timer_jitter_prob": plan.timer_jitter_prob,
        "timer_jitter_max": plan.timer_jitter_max,
    }


# ---------------------------------------------------------------------------
# Invariant checks
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


def check_invariants(kernel: Kernel, *, expect_deadlock: bool) -> list[str]:
    """All post-run invariant checks; returns human-readable violations."""
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
    live = [t for t in kernel.threads.values() if t.alive]
    if stats.live_threads != len(live):
        failures.append(
            f"live_threads={stats.live_threads} but {len(live)} threads alive"
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

    # 3. Every partial deadlock detected: force a final sweep, then scan
    # independently and require containment.
    watchdog = kernel.watchdog
    if watchdog is not None:
        watchdog.check(kernel.now)
        reported = {report.tids for report in watchdog.deadlocks}
        for cycle in _brute_force_cycles(kernel):
            if cycle not in reported:
                names = sorted(
                    kernel.threads[tid].name for tid in cycle
                )
                failures.append(f"undetected waits-for cycle: {names}")

    # 4. Directed scenarios: the wedge must exist, be reported, and be
    # *partial* — a bystander still making progress.
    if expect_deadlock:
        if watchdog is None or not watchdog.deadlocks:
            failures.append("expected a partial deadlock; watchdog found none")
        else:
            wedged = set().union(*(r.tids for r in watchdog.deadlocks))
            bystanders = [
                t for t in live
                if t.tid not in wedged
                and t.state in (ThreadState.READY, ThreadState.RUNNING,
                                ThreadState.SLEEPING)
            ]
            if not bystanders:
                failures.append(
                    "deadlock detected but no unrelated thread is still live"
                )
    return failures


# ---------------------------------------------------------------------------
# The sweep
# ---------------------------------------------------------------------------

@dataclass
class RunRecord:
    scenario: str
    plan: dict
    seed: int
    faults: dict = field(default_factory=dict)
    deadlocks: int = 0
    starvation: int = 0
    failures: list[str] = field(default_factory=list)
    #: Where the failing run's decision trace was saved (see
    #: ``python -m repro explore --replay``), or None.
    trace_path: str | None = None

    @property
    def ok(self) -> bool:
        return not self.failures


def run_one(
    scenario: Scenario,
    plan: FaultPlan,
    seed: int,
    *,
    trace_dir: str | None = None,
    controller: Any = None,
) -> RunRecord:
    """One chaos run: build, run, sweep, check, shut down.

    Every run records its schedule through a :class:`ScheduleController`
    (with default tails, so directed runs stay byte-identical — the
    disarmed seams decide nothing); a replay passes its own forcing
    ``controller`` instead.  When ``trace_dir`` is given and the run
    fails an invariant, the recorded :class:`DecisionTrace` is saved
    there so ``repro explore --replay`` can reproduce the exact run.
    The entry's ``check`` counts only for a clean entry (``expect`` is
    None); a deadlock entry must instead show a reported partial
    deadlock.
    """
    from repro.explore.trace import ScheduleController

    recorder = controller or ScheduleController()
    config = KernelConfig(
        seed=seed, fault_plan=plan, watchdog=True,
        schedule_controller=recorder,
    )
    kernel, shutdown = scenario.build(config)
    record = RunRecord(
        scenario=scenario.name, plan=plan_dict(plan), seed=seed
    )
    try:
        try:
            kernel.run_until(CHAOS_RUN, raise_on_deadlock=False)
        except Exception as error:  # noqa: BLE001 - a fault surfaced a
            # workload bug (e.g. a monitor held without try/finally when a
            # kill unwound it); that is a finding, not a harness crash.
            record.failures.append(f"run aborted: {error!r}")
        record.faults = dict(kernel.stats.fault_counts)
        record.deadlocks = len(kernel.watchdog.deadlocks)
        record.starvation = len(kernel.watchdog.starvation)
        record.failures.extend(check_invariants(
            kernel, expect_deadlock=scenario.expect == EXPECT_DEADLOCK
        ))
        if scenario.expect is None:
            record.failures.extend(scenario.check(kernel))
    finally:
        shutdown()
    # 5. Post-shutdown: everything returned.
    stats = kernel.stats
    if stats.live_threads != 0:
        record.failures.append(
            f"after shutdown: live_threads={stats.live_threads}"
        )
    if stats.stack_bytes != 0:
        record.failures.append(
            f"after shutdown: stack_bytes={stats.stack_bytes}"
        )
    if record.failures and trace_dir is not None:
        import os

        recorder.trace.meta.update(
            scenario=scenario.name, seed=seed, plan=record.plan,
            kill_immune=list(plan.kill_immune),
            failures=list(record.failures),
        )
        path = os.path.join(
            trace_dir, f"chaos-{scenario.name}-seed{seed}.trace.json"
        )
        recorder.trace.save(path)
        record.trace_path = path
    return record


def verify_golden(*, with_watchdog: bool = True) -> dict:
    """Faults-off chaos mode: a zero-rate plan (and the watchdog) must
    reproduce the pinned golden schedule hashes bit-for-bit."""
    from repro.analysis.golden import golden_run, load_golden

    golden = load_golden()
    overrides: dict[str, Any] = {"fault_plan": FaultPlan()}
    if with_watchdog:
        overrides["watchdog"] = True
    entries = resolve("golden")
    mismatches = [
        scenario.name for scenario in entries
        if golden.get(scenario.name) != golden_run(scenario, overrides)
    ]
    return {
        "scenarios": len(entries),
        "mismatches": mismatches,
        "ok": not mismatches,
    }


def run_sweep(
    *,
    seed: int = 0,
    runs: int = 14,
    check_golden: bool = True,
    progress: Callable[[str], None] | None = None,
    trace_dir: str | None = None,
    scenarios: str | None = None,
) -> dict:
    """The full sweep: directed runs, sampled plans, golden check.

    Returns the JSON-serialisable report.  Deterministic in ``seed``.
    ``scenarios`` is a catalogue selector for the directed runs (default
    the ``chaos`` tag); each runs under its entry's plan, or a zero-rate
    one.  The sampled runs are controlled separately by ``runs`` — CI's
    failover smoke runs just the two failover entries with ``runs=0``.
    """
    directed = resolve("chaos" if scenarios is None else scenarios)
    sweep = resolve("sweep")
    rng = DeterministicRng(seed).fork("chaos")
    say = progress or (lambda line: None)
    records: list[RunRecord] = []

    for scenario in directed:
        record = run_one(
            scenario, scenario.plan or FaultPlan(), seed, trace_dir=trace_dir
        )
        say(f"{scenario.name}: deadlocks={record.deadlocks} "
            f"{'ok' if record.ok else 'FAIL'}")
        records.append(record)

    for index in range(runs):
        scenario = sweep[index % len(sweep)]
        record = run_one(
            scenario, sample_plan(rng), seed + index, trace_dir=trace_dir
        )
        say(f"{scenario.name}[{index}]: faults={sum(record.faults.values())} "
            f"{'ok' if record.ok else 'FAIL'}")
        records.append(record)

    report: dict[str, Any] = {
        "seed": seed,
        "runs": [vars(r) for r in records],
        "summary": {
            "total": len(records),
            "failed": sum(1 for r in records if not r.ok),
            "faults_injected": sum(
                sum(r.faults.values()) for r in records
            ),
            "deadlocks_detected": sum(r.deadlocks for r in records),
        },
    }
    if check_golden:
        say("verifying golden hashes with faults disarmed...")
        report["golden"] = verify_golden()
    report["ok"] = report["summary"]["failed"] == 0 and (
        not check_golden or report["golden"]["ok"]
    )
    return report


def write_report(report: dict, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(report, handle, indent=2, sort_keys=True)
        handle.write("\n")
