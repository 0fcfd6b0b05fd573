"""The PCR scheduler model.

Policy, per Section 2 of the paper:

* "The scheduler runs the highest priority runnable thread and if there are
  several runnable threads at the highest priority then round-robin is used
  among them."
* "If a system event causes a higher priority thread to become runnable,
  the scheduler will preempt the currently running thread, even if it holds
  monitor locks."
* 7 priority levels; timeslice 50 ms (the quantum lives in KernelConfig).

Plus the two deliberate violations of strict priority that Sections 5.2 and
6.2 describe, both modelled as *donations*:

* ``YieldButNotToMe`` donates the caller's CPU to the highest-priority
  *other* ready thread until the end of the timeslice;
* the SystemDaemon's directed yield donates a slice to a specific (possibly
  low-priority) thread.

A donation is per-CPU state: while active, that CPU dispatches the donee in
preference to strict priority order.  Ticks clear donations ("The end of a
timeslice ends the effect of a YieldButNotToMe or a directed yield",
Section 6.3), as does the donee blocking.

Three choices here are left open by the paper, and each is a decision
the kernel numbers and resolves (``Kernel.decide``, passed in as
``decide``): ``sched.pick``, which of several equal-best ready threads
runs (default: the round-robin head); ``sched.lottery``, the fair-share
ticket draw (default: one seeded draw); and ``sched.donee``, which of
several equal-priority threads a YieldButNotToMe donates to (default:
queue order).  With no schedule controller attached each returns its
default, so the same code serves plain and explored runs.
"""

from __future__ import annotations

from collections import deque

from repro.kernel.config import MAX_PRIORITY, MIN_PRIORITY
from repro.kernel.thread import SimThread, ThreadState


def first_choice(_seq: int) -> int:
    """Default for decisions whose choice 0 is the quiet one: the
    round-robin head at pick sites, holding every store buffer at
    ``mem.drain``."""
    return 0


class Cpu:
    """One simulated processor."""

    __slots__ = (
        "index",
        "current",
        "busy_until",
        "burst_start",
        "last_thread",
        "donee",
    )

    def __init__(self, index: int) -> None:
        self.index = index
        #: Thread currently running here, or None when idle.
        self.current: SimThread | None = None
        #: Absolute sim time at which the current compute burst finishes
        #: (only meaningful while ``current`` has pending_compute).
        self.busy_until: int | None = None
        #: When the current burst began (partial-burst accounting).
        self.burst_start: int | None = None
        #: Thread that last ran here (switch-cost accounting).
        self.last_thread: SimThread | None = None
        #: Active donation target for this CPU, or None.
        self.donee: SimThread | None = None

    def __repr__(self) -> str:
        running = self.current.name if self.current else "idle"
        return f"<Cpu {self.index} {running}>"


class Scheduler:
    """Ready queues and dispatch policy.

    ``policy`` selects between PCR's strict priorities and the Section 7
    fair-share exploration (deterministic lottery, tickets doubling per
    level, no priority preemption).  ``rng`` is only consulted under
    fair share, so strict-policy runs stay byte-identical to before the
    policy knob existed.  ``decide`` is the kernel's decision seam.
    """

    def __init__(self, ncpus: int, *, rng, decide, policy: str = "strict") -> None:
        self._queues: dict[int, deque[SimThread]] = {
            prio: deque() for prio in range(MIN_PRIORITY, MAX_PRIORITY + 1)
        }
        #: Bit ``p`` set iff the priority-``p`` ready queue is nonempty.
        self._nonempty_mask = 0
        #: Incremental total of ready threads across all queues.
        self._ready_count = 0
        #: Highest nonempty priority, or 0 when nothing is ready.  Cached
        #: so the per-trap preemption check is a single integer compare.
        self.best_ready = 0
        self.cpus = [Cpu(i) for i in range(ncpus)]
        self.policy = policy
        self.rng = rng
        #: ``Kernel.decide``: the pick among equal-best ready threads,
        #: the lottery draw and donation-target ties are its decisions.
        #: ``Kernel.shutdown`` drops it, the kernel's last back-reference.
        self.decide = decide

    # -- ready-queue bookkeeping -------------------------------------------
    #
    # Every queue mutation goes through these two helpers (or repeats
    # their bodies inline) so the mask / count / best_ready cache always
    # agrees with the queues.  The O(1) queries below depend on it.

    def _note_added(self, queue: deque, priority: int) -> None:
        self._ready_count += 1
        if len(queue) == 1:
            self._nonempty_mask |= 1 << priority
            if priority > self.best_ready:
                self.best_ready = priority

    def _note_removed(self, queue: deque, priority: int) -> None:
        self._ready_count -= 1
        if not queue:
            mask = self._nonempty_mask & ~(1 << priority)
            self._nonempty_mask = mask
            if priority == self.best_ready:
                # bit_length()-1 is the highest set bit == best priority.
                self.best_ready = mask.bit_length() - 1 if mask else 0

    # -- ready-queue management ------------------------------------------

    def make_ready(self, thread: SimThread, *, front: bool = False) -> None:
        """Put a thread on its priority's ready queue.

        ``front=True`` is used for preempted threads, which did not finish
        their slice and so keep their place in the round-robin order.
        """
        if thread.state is ThreadState.READY:
            raise AssertionError(f"{thread!r} already ready")
        thread.state = ThreadState.READY
        thread.blocked_on = None
        queue = self._queues[thread.priority]
        if front:
            queue.appendleft(thread)
        else:
            queue.append(thread)
        self._note_added(queue, thread.priority)

    def unready(self, thread: SimThread) -> None:
        """Remove a thread from the ready queues (e.g. external kill)."""
        queue = self._queues[thread.priority]
        try:
            queue.remove(thread)
        except ValueError:
            raise AssertionError(f"{thread!r} not on ready queue") from None
        self._note_removed(queue, thread.priority)

    def requeue_for_priority_change(
        self, thread: SimThread, new_priority: int
    ) -> None:
        """Move a READY thread between queues when its priority changes.

        A same-priority "change" is a no-op: removing and re-appending
        would silently send the thread to the back of its round-robin
        queue, reordering it behind peers it was ahead of.
        """
        if new_priority == thread.priority:
            return
        self.unready(thread)
        thread.priority = new_priority
        queue = self._queues[new_priority]
        queue.append(thread)  # state stays READY
        self._note_added(queue, new_priority)

    # -- queries -----------------------------------------------------------

    def highest_ready_priority(self) -> int | None:
        """Priority of the best ready thread, or None if none ready."""
        return self.best_ready or None

    def ready_count(self) -> int:
        return self._ready_count

    def ready_threads(self) -> list[SimThread]:
        """All ready threads, best priority first (round-robin order
        within a level).  Used by the SystemDaemon's random choice."""
        threads: list[SimThread] = []
        mask = self._nonempty_mask
        while mask:
            prio = mask.bit_length() - 1
            threads.extend(self._queues[prio])
            mask ^= 1 << prio
        return threads

    # -- dispatch ----------------------------------------------------------

    def take_next(self, cpu: Cpu) -> SimThread | None:
        """Choose and remove the thread this CPU should run next.

        Honours an active donation first, then strict priority order.
        """
        if cpu.donee is not None:
            donee = cpu.donee
            if donee.state is ThreadState.READY:
                queue = self._queues[donee.priority]
                queue.remove(donee)
                self._note_removed(queue, donee.priority)
                return donee
            # Donee ran and blocked, or was never ready: donation is spent.
            cpu.donee = None
        if self.policy == "fair_share":
            return self._take_by_lottery()
        best = self.best_ready
        if not best:
            return None
        queue = self._queues[best]
        if len(queue) > 1:
            # The paper's round-robin is one of many priority-respecting
            # orders; exploration enumerates the rest.  Choice 0 is the
            # queue head, so the default is exactly popleft().
            index = self.decide("sched.pick", len(queue), first_choice, queue)
            thread = queue[index]
            del queue[index]
        else:
            thread = queue.popleft()
        self._note_removed(queue, best)
        return thread

    def _take_by_lottery(self) -> SimThread | None:
        """Fair share: pick a ready thread with probability proportional
        to 2^(priority-1) tickets (deterministic seeded lottery)."""
        winner = self._lottery_pick(self.ready_threads())
        if winner is not None:
            queue = self._queues[winner.priority]
            queue.remove(winner)
            self._note_removed(queue, winner.priority)
        return winner

    def _lottery_pick(self, ready: list[SimThread]) -> SimThread | None:
        """The fair-share ticket draw over ``ready`` (no queue mutation)."""
        if not ready:
            return None
        index = self.decide(
            "sched.lottery",
            len(ready),
            lambda _seq: self._lottery_draw(ready),
            ready,
        )
        return ready[index]

    def _lottery_draw(self, ready: list[SimThread]) -> int:
        """One seeded ticket draw; returns the winner's index."""
        tickets = [1 << (t.priority - 1) for t in ready]
        draw = self.rng.randint(1, sum(tickets))
        cumulative = 0
        winner = len(ready) - 1
        for index, ticket_count in enumerate(tickets):
            cumulative += ticket_count
            if draw <= cumulative:
                winner = index
                break
        return winner

    def peek_best_other(self, exclude: SimThread) -> SimThread | None:
        """The ready thread a YieldButNotToMe donation should go to.

        Routed through the active policy: strict priority picks the
        highest-priority *other* ready thread; fair share runs the same
        ticket lottery dispatch would use, restricted to the other ready
        threads — a strict-priority scan here would contradict the
        lottery the donee is otherwise chosen by.
        """
        if self.policy == "fair_share":
            others = [t for t in self.ready_threads() if t is not exclude]
            return self._lottery_pick(others)
        mask = self._nonempty_mask
        while mask:
            prio = mask.bit_length() - 1
            candidates = [t for t in self._queues[prio] if t is not exclude]
            if candidates:
                index = self.decide(
                    "sched.donee", len(candidates), first_choice, candidates
                )
                return candidates[index]
            mask ^= 1 << prio
        return None

    def clear_donations(self) -> None:
        """Tick boundary: every donation expires."""
        for cpu in self.cpus:
            cpu.donee = None
