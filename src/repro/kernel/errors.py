"""Kernel exception hierarchy.

Two families:

* errors raised *into* simulated threads (they subclass ``SimThreadError``
  and can be caught by thread code — e.g. a failed FORK under the "raise"
  policy, mirroring Section 5.4 of the paper);
* errors that indicate a bug in the caller's use of the kernel API
  (``KernelUsageError``) — e.g. waiting on a condition variable without
  holding its monitor, which the Mesa compiler statically prevented and we
  check dynamically.
"""

from __future__ import annotations


class KernelError(Exception):
    """Base class for everything raised by the simulated kernel."""


class KernelUsageError(KernelError):
    """The host program misused the kernel API (a bug in the caller)."""


class MonitorProtocolError(KernelUsageError):
    """A monitor/CV invariant was violated.

    Examples: exiting a monitor the thread does not hold, WAITing on a CV
    whose monitor is not held, re-entering a non-reentrant monitor.
    """


class JoinProtocolError(KernelUsageError):
    """JOIN misuse: joining twice, joining a detached thread, self-join."""


class SimThreadError(KernelError):
    """Base class for errors raised inside simulated threads."""


class ForkFailed(SimThreadError):
    """FORK failed for lack of resources (Section 5.4, "raise" policy)."""


class ThreadKilled(SimThreadError):
    """An injected fault killed the thread at a trap boundary.

    Raised *into* the thread body by the fault injector
    (:mod:`repro.analysis.faults`), so ``finally`` clauses run and monitors
    are released exactly as for any other unwinding exception.  Kills are
    faults, not workload bugs: an unjoined victim does not land in
    ``pending_thread_errors``, but a JOINer still sees the death.
    """


class Deadlock(KernelError):
    """The simulation cannot make progress.

    Raised by ``Kernel.run`` when threads exist but none are runnable and no
    timed event will ever wake one.  (A *partial* deadlock among a subset
    of live threads is not raised: the waits-for watchdog,
    :mod:`repro.analysis.watchdog`, records it and the run goes on.)  The
    message carries a per-thread diagnosis; ``rows`` carries the same
    diagnosis as structured ``(thread, state, waits_on, held_by)`` tuples
    so callers (the CLI's ``--no-raise-on-deadlock`` path) can render a
    table.
    """

    def __init__(self, message: str, rows: "list[tuple] | None" = None) -> None:
        super().__init__(message)
        self.rows = rows or []


class UncaughtThreadError(KernelError):
    """A simulated thread died from an exception and was not rejuvenated.

    Stored on the thread; re-raised at JOIN, or, for a thread nobody
    JOINs, at the end of the next ``run_until``/``run_for`` (one error per
    run, oldest first).
    """

    def __init__(self, thread_name: str, original: BaseException) -> None:
        super().__init__(f"thread {thread_name!r} died: {original!r}")
        self.thread_name = thread_name
        self.original = original
