"""Seeded fault injection over the kernel trap layer.

The paper's systems survived a decade of production use not because the
primitives were never misused but because the failure modes — a NOTIFY
issued a hair too early, a FORK denied under load, a thread dying with a
monitor held, a timeout firing late — were *survivable* by correctly
written client code (WAIT in a loop, Section 4.2; fork-failure policies,
Section 5.4; timeout slop, Section 6.3).  This module makes those failure
modes reproducible on demand so the robustness claims can be tested
instead of assumed.

Five fault kinds:

* ``drop_notify`` — a NOTIFY that would have woken a waiter is stolen;
  correct WAIT-in-a-loop code with a timeout recovers, IF-based code
  hangs.
* ``spurious_wakeup`` — a CV waiter is woken with no NOTIFY pending;
  correct code re-checks its predicate, IF-based code proceeds on a
  broken invariant.
* ``fork_fail`` — a FORK is denied as if thread resources were
  exhausted, exercising the configured ``fork_failure`` policy.
* ``kill`` — a running or ready thread receives :class:`ThreadKilled`
  at its next trap boundary; generator unwinding runs ``finally``
  clauses, so held monitors are released like any other exception exit.
* ``timer_jitter`` — a timed wait's deadline is pushed later by a
  bounded random amount, modelling coarse timeout granularity.

Determinism contract: every fault decision is one ``Kernel.decide``
call at site ``fault.<kind>``, where ``kind`` names the decision
(``drop_notify``, ``fork_fail``, ``timer_jitter``, ``spurious``,
``spurious_victim``, ``kill``, ``kill_victim``).  The kernel numbers
it: ``seq`` counts that site's earlier decisions with more than one
choice.  Its default draws from a fresh stream forked off the kernel's
``faults`` stream under ``f"{kind}:{seq}"``.  ``DeterministicRng.fork``
is pure (CRC32 of seed+label, no parent draws), so a decision's
default depends on nothing but its kind and number.  Three properties
follow, and ``tests/test_faults.py`` pins them:

* a plan with every rate at zero decides nothing, so it is trace- and
  stats-identical to running with no plan at all;
* turning one fault kind on never perturbs another kind's draws;
* a :class:`~repro.explore.trace.ScheduleController` only forces,
  chooses or records decisions the kernel has already numbered, so a
  recorded run equals an uncontrolled one, and forcing an earlier
  decision leaves every later default where it was.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Sequence

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel
    from repro.kernel.rng import DeterministicRng
    from repro.kernel.thread import SimThread

#: Fault kind names as they appear in ``GlobalStats.fault_counts`` and in
#: ``CAT_FAULT`` trace events.
KIND_DROP_NOTIFY = "drop_notify"
KIND_SPURIOUS_WAKEUP = "spurious_wakeup"
KIND_FORK_FAIL = "fork_fail"
KIND_KILL = "kill"
KIND_TIMER_JITTER = "timer_jitter"


@dataclass(frozen=True)
class FaultPlan:
    """What to inject and how often.  Immutable; attach to
    ``KernelConfig.fault_plan``.

    Rates are probabilities per *opportunity*: per NOTIFY with waiters
    (``drop_notify_prob``), per FORK (``fork_fail_prob``), per armed
    timeout (``timer_jitter_prob``), per scheduler tick
    (``spurious_wakeup_prob``, ``kill_thread_prob``).
    """

    #: Probability a NOTIFY that has waiters wakes nobody.
    drop_notify_prob: float = 0.0
    #: Per-tick probability of waking one random CV waiter spuriously.
    spurious_wakeup_prob: float = 0.0
    #: Probability a FORK fails as if out of thread resources.
    fork_fail_prob: float = 0.0
    #: Per-tick probability of killing one random ready/running thread.
    kill_thread_prob: float = 0.0
    #: Probability an armed timeout gets jittered later.
    timer_jitter_prob: float = 0.0
    #: Maximum jitter added to a timed-wait deadline, in microseconds.
    timer_jitter_max: int = 0
    #: Thread-name prefixes that are never kill targets.  Workload roots
    #: and harness threads go here so chaos runs converge.
    kill_immune: tuple[str, ...] = ()

    def validate(self) -> None:
        for name in (
            "drop_notify_prob",
            "spurious_wakeup_prob",
            "fork_fail_prob",
            "kill_thread_prob",
            "timer_jitter_prob",
        ):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        if self.timer_jitter_max < 0:
            raise ValueError("timer_jitter_max must be non-negative")
        if self.timer_jitter_prob > 0.0 and self.timer_jitter_max == 0:
            raise ValueError("timer_jitter_prob set but timer_jitter_max is 0")

    @property
    def wants_ticks(self) -> bool:
        """Whether any per-tick fault is live (the kernel keeps ticking
        through otherwise-idle stretches when this is true)."""
        return self.spurious_wakeup_prob > 0.0 or self.kill_thread_prob > 0.0


class FaultInjector:
    """Draws fault decisions and performs the tick-driven injections.

    Constructed by the kernel when ``config.fault_plan`` is set.  Trap-site
    faults (notify/fork/timer) are *decided* here but *performed* by the
    kernel at the hook site, which then calls :meth:`note` with the victim
    context; tick faults (spurious wake, kill) are both decided and
    performed from :meth:`on_tick`.
    """

    def __init__(self, kernel: "Kernel", plan: FaultPlan, rng: "DeterministicRng") -> None:
        #: The kernel it injects into; ``Kernel.shutdown`` drops it, so
        #: the two form no reference cycle once the kernel is shut down.
        self.kernel = kernel
        self.plan = plan
        self._rng = rng

    # -- bookkeeping -------------------------------------------------------

    def note(self, kind: str, thread_name: str, detail: object = None) -> None:
        """Count an injected fault and trace it under ``CAT_FAULT``."""
        kernel = self.kernel
        kernel.stats.note_fault(kind)
        if kernel._tracing:
            from repro.kernel.instrumentation import CAT_FAULT

            kernel.tracer.record(kernel.now, CAT_FAULT, kind, thread_name, detail)

    # -- the one decision path ---------------------------------------------

    def _decide(
        self,
        kind: str,
        n: int,
        draw: "Callable[[DeterministicRng], int]",
        candidates: "Sequence[SimThread]" = (),
    ) -> int:
        """Resolve one fault decision over ``n`` choices at the kernel's
        seam.  The default is ``draw`` over a fresh stream forked from
        the decision's kind and sequence number, so it depends on
        nothing else in the run."""
        base = self._rng
        return self.kernel.decide(
            f"fault.{kind}",
            n,
            lambda seq: draw(base.fork(f"{kind}:{seq}")),
            candidates,
        )

    def _fires(
        self, kind: str, prob: float, candidates: "Sequence[SimThread]" = ()
    ) -> bool:
        """A boolean fault decision: inject with probability ``prob``."""
        return bool(
            self._decide(
                kind, 2, lambda stream: int(stream.chance(prob)), candidates
            )
        )

    # -- trap-site decisions ----------------------------------------------

    def steal_notify(self) -> bool:
        """Decide whether this NOTIFY (which has waiters) wakes nobody."""
        prob = self.plan.drop_notify_prob
        return prob > 0.0 and self._fires("drop_notify", prob)

    def fail_fork(self) -> bool:
        """Decide whether this FORK is denied for (feigned) resources."""
        prob = self.plan.fork_fail_prob
        return prob > 0.0 and self._fires("fork_fail", prob)

    def timer_jitter(self) -> int:
        """Extra microseconds to push a timed-wait deadline later: one
        decision carrying the amount (0 = no jitter, j = +j µs)."""
        prob, most = self.plan.timer_jitter_prob, self.plan.timer_jitter_max
        if most == 0 or prob <= 0.0:
            return 0

        def draw(stream: "DeterministicRng") -> int:
            return stream.randint(1, most) if stream.chance(prob) else 0

        return self._decide("timer_jitter", most + 1, draw)

    # -- tick-driven faults ------------------------------------------------

    def on_tick(self) -> None:
        """Called by the kernel from every scheduler tick."""
        plan = self.plan
        kernel = self.kernel
        if plan.spurious_wakeup_prob > 0.0:
            self._tick_fault(
                "spurious", plan.spurious_wakeup_prob, self._cv_waiters(),
                kernel._inject_spurious_wake,
            )
        if plan.kill_thread_prob > 0.0:
            self._tick_fault(
                "kill", plan.kill_thread_prob, self._kill_targets(),
                kernel._inject_kill,
            )

    def _tick_fault(
        self,
        kind: str,
        prob: float,
        candidates: "list[SimThread]",
        inject: "Callable[[SimThread], None]",
    ) -> None:
        """Two decisions, each only where there is a real choice: fire?,
        then (among several candidates) which victim."""
        if not candidates or not self._fires(kind, prob, candidates):
            return
        n = len(candidates)
        index = self._decide(
            f"{kind}_victim", n, lambda stream: stream.randint(0, n - 1),
            candidates,
        )
        inject(candidates[index])

    def _cv_waiters(self) -> "list[SimThread]":
        from repro.kernel.thread import ThreadState

        return [
            t
            for t in self.kernel.threads.values()
            if t.state is ThreadState.WAITING_CV
        ]

    def _kill_targets(self) -> "list[SimThread]":
        from repro.kernel.thread import ThreadState

        immune = self.plan.kill_immune
        return [
            t
            for t in self.kernel.threads.values()
            if t.state in (ThreadState.READY, ThreadState.RUNNING)
            and t.pending_throw is None
            and not any(t.name.startswith(p) for p in immune)
        ]
