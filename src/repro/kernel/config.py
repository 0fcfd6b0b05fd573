"""Kernel configuration.

Every policy knob the paper discusses is explicit here so experiments can
flip exactly one variable:

* ``quantum`` — the scheduler timeslice *and* timeout granularity.  Section
  6.3 is entirely about this constant (50 ms in PCR); the quantum-sweep
  case study re-runs the echo pipeline at 1 ms / 20 ms / 50 ms / 1 s.
* ``notify_semantics`` — ``"deferred"`` is the paper's fix (defer processor
  rescheduling until monitor exit); ``"immediate"`` reproduces the spurious
  lock conflicts of Section 6.1.
* ``notify_wakes`` — ``"exactly_one"`` is Mesa/PCR; ``"at_least_one"``
  emulates thread packages with weaker NOTIFY (Birrell), used by property
  tests to show WAIT-in-a-loop code is insensitive to the difference.
* ``fork_failure`` — ``"raise"`` (the old systems) vs ``"wait"`` (the newer
  ones), Section 5.4.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.kernel.simtime import msec, usec

MIN_PRIORITY = 1
MAX_PRIORITY = 7
#: Paper: "There are 7 priorities in all, with the default being the middle
#: priority (4)."
DEFAULT_PRIORITY = 4

NOTIFY_DEFERRED = "deferred"
NOTIFY_IMMEDIATE = "immediate"

WAKES_EXACTLY_ONE = "exactly_one"
WAKES_AT_LEAST_ONE = "at_least_one"

FORK_FAILURE_RAISE = "raise"
FORK_FAILURE_WAIT = "wait"

MODEL_SC = "sc"
MODEL_TSO = "tso"
MODEL_PSO = "pso"
MEMORY_MODELS = (MODEL_SC, MODEL_TSO, MODEL_PSO)

SCHED_STRICT = "strict"
SCHED_FAIR_SHARE = "fair_share"


@dataclass
class KernelConfig:
    """Tunable policies of the simulated PCR kernel."""

    #: Timeslice length and CV-timeout granularity (PCR: 50 ms).
    quantum: int = msec(50)
    #: Cost of switching between threads (paper: < 50 µs on a SS-2).
    switch_cost: int = usec(40)
    #: Cost charged on every monitor entry/exit (lock bookkeeping).
    monitor_overhead: int = usec(1)
    #: Number of simulated processors.
    ncpus: int = 1
    #: Seed for all kernel randomness (SystemDaemon choice, jitter).
    seed: int = 0
    #: NOTIFY rescheduling: "deferred" (the fix) or "immediate" (pre-fix).
    notify_semantics: str = NOTIFY_DEFERRED
    #: NOTIFY wake count: "exactly_one" (Mesa) or "at_least_one" (Birrell).
    notify_wakes: str = WAKES_EXACTLY_ONE
    #: Probability that an at-least-one NOTIFY wakes an extra waiter.
    at_least_one_extra_prob: float = 0.25
    #: Maximum number of live threads before FORK runs out of resources.
    max_threads: int = 10_000
    #: What FORK does when out of resources: "raise" (old) or "wait" (new).
    fork_failure: str = FORK_FAILURE_WAIT
    #: Ablation beyond the paper: donate the blocker's priority to a
    #: monitor's owner (full priority inheritance).  PCR deliberately did
    #: NOT do this for monitors — "we don't know how to implement it
    #: efficiently" — only for the per-monitor metalock; the inversion
    #: case study measures what they gave up.
    monitor_priority_inheritance: bool = False
    #: Virtual memory reserved per thread stack (paper: 100 kilobytes).
    stack_reservation: int = 100 * 1024
    #: Scheduling policy.  "strict" is PCR's model (the paper's default);
    #: "fair_share" is the Section 7 future-work exploration: threads
    #: progress at rates proportional to 2^(priority-1) via deterministic
    #: lottery, with no priority preemption — "a model intuitively better
    #: suited to controlling long-term average behavior than to
    #: controlling moment-by-moment processor allocation".
    scheduler_policy: str = SCHED_STRICT
    #: Memory model for SimVar traps (Section 5.5, :mod:`repro.memmodel`):
    #: "sc" (default — sequential consistency, every store globally
    #: visible at once), "tso" (x86-TSO: per-thread FIFO store buffers
    #: with store-to-load forwarding; only store→load reordering is
    #: possible), or "pso" (per-thread buffers that are FIFO per
    #: *variable* only, so stores to different variables drain out of
    #: program order — the §5.5 machine).
    memory_model: str = MODEL_SC
    #: Store-buffer flush latency under the buffered models (tso/pso):
    #: an undrained store becomes globally visible at most this many
    #: microseconds after issue.
    store_buffer_delay: int = usec(5)
    #: Run the dynamic race detector (Eraser locksets + happens-before
    #: vector clocks, :mod:`repro.analysis.races`) over every SimVar
    #: access and synchronisation trap.  Purely observational: enabling
    #: it never changes a schedule, disabling it costs nothing.
    race_detection: bool = False
    #: Seeded fault plan (:class:`repro.analysis.faults.FaultPlan`) or
    #: None.  When set, the kernel instantiates a
    #: :class:`~repro.analysis.faults.FaultInjector` drawing from a
    #: dedicated RNG stream forked off the kernel seed, so a plan with
    #: all rates at zero is byte-identical to no plan at all and enabling
    #: one fault kind never perturbs another kind's schedule.  Typed
    #: loosely to keep the kernel layer free of analysis imports.
    fault_plan: Any = None
    #: Schedule controller
    #: (:class:`repro.explore.trace.ScheduleController`) or None.  Every
    #: nondeterministic choice point — the pick among equal-best ready
    #: threads, fair-share lottery draws, store-buffer drains, fault-plan
    #: samples — is numbered by ``Kernel.decide``, which hands it to the
    #: controller, when set, to record, force or replay.  None (the
    #: default) takes each site's default; the numbering is the same
    #: either way, so recording changes nothing (the golden schedule
    #: guard pins that).  Typed loosely for the same layering reason as
    #: ``fault_plan``.
    schedule_controller: Any = None
    #: Run the waits-for watchdog (:mod:`repro.analysis.watchdog`) once
    #: per quantum: partial-deadlock cycles among monitor/JOIN/untimed-CV
    #: waiters and a starvation monitor for ready-but-never-dispatched
    #: threads.  Purely observational: it records what it finds and lets
    #: the run continue.
    watchdog: bool = False
    #: Record a full event trace (costs memory; stats are always kept).
    trace: bool = False

    def __post_init__(self) -> None:
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        if self.ncpus < 1:
            raise ValueError("ncpus must be >= 1")
        if self.notify_semantics not in (NOTIFY_DEFERRED, NOTIFY_IMMEDIATE):
            raise ValueError(f"bad notify_semantics: {self.notify_semantics!r}")
        if self.notify_wakes not in (WAKES_EXACTLY_ONE, WAKES_AT_LEAST_ONE):
            raise ValueError(f"bad notify_wakes: {self.notify_wakes!r}")
        if self.fork_failure not in (FORK_FAILURE_RAISE, FORK_FAILURE_WAIT):
            raise ValueError(f"bad fork_failure: {self.fork_failure!r}")
        if self.memory_model not in MEMORY_MODELS:
            raise ValueError(f"bad memory_model: {self.memory_model!r}")
        if self.scheduler_policy not in (SCHED_STRICT, SCHED_FAIR_SHARE):
            raise ValueError(f"bad scheduler_policy: {self.scheduler_policy!r}")
        if self.switch_cost < 0 or self.monitor_overhead < 0:
            raise ValueError("costs must be non-negative")
        if not 0.0 <= self.at_least_one_extra_prob <= 1.0:
            raise ValueError("at_least_one_extra_prob must be in [0, 1]")
        if self.fault_plan is not None:
            self.fault_plan.validate()
