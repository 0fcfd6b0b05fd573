"""Chaos sweep: workloads under sampled fault plans, with invariants.

``python -m repro chaos`` runs entries of the scenario catalogue
(:mod:`repro.analysis.scenarios`) under seeded :class:`FaultPlan`s —
stolen NOTIFYs, spurious wakeups, feigned FORK failures, thread kills,
timer jitter — and asserts the robustness invariants the paper's systems
earned the hard way.

Chaos has no run loop of its own.  Each run is one recorded schedule of
the explore harness (:func:`repro.explore.driver.run_schedule`) on the
entry with the sampled plan and a fixed :data:`CHAOS_RUN` horizon, so
the watchdog, the early stop, the race detector (where the entry asks
for it) and the invariant battery are the ones exploration uses:

* **No leaked monitor holds**, **stats reconcile** and **every partial
  deadlock is detected** — :func:`repro.explore.driver.check_invariants`;
  after shutdown ``live_threads`` and ``stack_bytes`` must be zero.
* **Directed deadlocks are found while the system lives.**  Two
  entries wedge a thread pair on purpose — one via the §5.3
  IF-instead-of-WHILE anti-pattern sprung by an injected spurious
  wakeup, one via a plain ABBA lock cycle.  A deadlock entry's own
  check reports the watchdog's cycle only while an unrelated thread is
  still live, and chaos requires that report.
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
JSON report it writes is the CI artifact, and a failing run's recorded
schedule is saved next to it for ``python -m repro explore --replay``.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable

from repro.analysis.faults import FaultPlan
from repro.analysis.scenarios import EXPECT_DEADLOCK, Scenario, resolve
from repro.explore.driver import ScheduleOutcome, run_schedule
from repro.explore.trace import ScheduleController
from repro.kernel import msec, sec
from repro.kernel.rng import DeterministicRng

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


def chaos_entry(scenario: Scenario, plan: FaultPlan) -> Scenario:
    """The catalogue entry as chaos runs it: under ``plan``, for
    :data:`CHAOS_RUN`."""
    return replace(scenario, plan=plan, horizon=CHAOS_RUN)


def chaos_failures(scenario: Scenario, outcome: ScheduleOutcome) -> list[str]:
    """Chaos's verdict on one run: every harness failure, plus the
    entry's own check for a clean entry; a deadlock entry must instead
    show its check's partial deadlock.  An entry that expects a
    violation only some schedules show is explore's business."""
    failures = list(outcome.harness_failures)
    if scenario.expect is None and outcome.violation is not None:
        failures.append(outcome.violation)
    elif scenario.expect == EXPECT_DEADLOCK and outcome.violation is None:
        failures.append(
            "deadlock detected but no unrelated thread is still live"
            if outcome.deadlocks
            else "expected a partial deadlock; watchdog found none"
        )
    return failures


def run_one(
    scenario: Scenario,
    plan: FaultPlan,
    seed: int,
    *,
    trace_dir: str | None = None,
    controller: Any = None,
) -> RunRecord:
    """One chaos run: :func:`run_schedule` on :func:`chaos_entry`, then
    :func:`chaos_failures`.

    The schedule is recorded through a default-tail
    :class:`ScheduleController` (``controller`` replaces it), which
    changes nothing about the run.  When ``trace_dir`` is given and the
    run fails, the recorded :class:`DecisionTrace` is saved there so
    ``repro explore --replay`` can reproduce the exact run.
    """
    recorder = controller or ScheduleController()
    entry = chaos_entry(scenario, plan)
    outcome = run_schedule(entry, recorder, seed=seed)
    record = RunRecord(
        scenario=scenario.name,
        plan=plan_dict(plan),
        seed=seed,
        faults=outcome.faults,
        deadlocks=outcome.deadlocks,
        starvation=outcome.starvation,
        failures=chaos_failures(entry, outcome),
    )
    if record.failures and trace_dir is not None:
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


def verify_golden() -> dict:
    """Faults-off chaos mode: a zero-rate plan and the watchdog must
    reproduce the pinned golden schedule hashes bit-for-bit."""
    from repro.analysis.golden import golden_run, load_golden

    golden = load_golden()
    overrides = {"fault_plan": FaultPlan(), "watchdog": True}
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
