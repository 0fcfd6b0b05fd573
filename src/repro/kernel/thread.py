"""SimThread: the kernel's per-thread state.

A thread wraps a Python generator (the running body) plus everything the
scheduler and the instrumentation need: state, priority, what it is blocked
on, accumulated CPU, execution intervals, fork genealogy.

The genealogy fields (``parent``, ``generation``, ``forked_children``)
exist because Section 3 of the paper analyses forking patterns — "none of
our benchmarks exhibited forking generations greater than 2" — and the F3
figure bench reproduces that analysis.

Lifetime classes (eternal / worker / transient) are assigned by the
analysis layer from observed lifetime and behaviour, mirroring the paper's
dynamic classification; the ``role`` field lets workloads also declare the
intended class so the two can be compared.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Any, Generator, Iterator

if TYPE_CHECKING:  # pragma: no cover
    from repro.sync.monitor import Monitor


class ThreadState(enum.Enum):
    """Scheduler-visible thread states."""

    NEW = "new"                  # created, not yet first dispatched
    READY = "ready"              # on a ready queue
    RUNNING = "running"          # on a CPU
    BLOCKED_MONITOR = "blocked-monitor"  # queued on a monitor mutex
    WAITING_CV = "waiting-cv"    # on a condition variable's wait queue
    SLEEPING = "sleeping"        # in Pause()
    JOINING = "joining"          # in Join() on an unfinished thread
    RECEIVING = "receiving"      # in Channelreceive() on an empty channel
    FORK_WAIT = "fork-wait"      # blocked in FORK for thread resources
    DONE = "done"                # terminated

class ThreadStats:
    """Per-thread accounting, updated by the kernel as events happen."""

    __slots__ = (
        "cpu_time",
        "dispatches",
        "preemptions",
        "yields",
        "monitor_enters",
        "monitor_blocks",
        "cv_waits",
        "cv_timeouts",
        "cv_notifies_received",
        "forks_issued",
    )

    def __init__(self) -> None:
        self.cpu_time = 0
        self.dispatches = 0
        self.preemptions = 0
        self.yields = 0
        self.monitor_enters = 0
        self.monitor_blocks = 0
        self.cv_waits = 0
        self.cv_timeouts = 0
        self.cv_notifies_received = 0
        self.forks_issued = 0


class SimThread:
    """One simulated thread.

    Created by the kernel; user code receives instances from ``Fork`` and
    passes them to ``Join`` / ``Detach`` / ``DirectedYield``.
    """

    def __init__(
        self,
        tid: int,
        name: str,
        body: Generator[Any, Any, Any],
        priority: int,
        created_at: int,
        parent: "SimThread | None" = None,
        role: str | None = None,
    ) -> None:
        self.tid = tid
        self.name = name
        self.body = body
        self.priority = priority
        self.initial_priority = priority
        self.created_at = created_at
        self.ended_at: int | None = None
        self.parent = parent
        #: Fork generation: 0 for threads forked from outside the simulated
        #: world (eternal/worker roots), parent.generation + 1 otherwise.
        self.generation = 0 if parent is None else parent.generation + 1
        self.forked_children: list[int] = []
        #: Declared role, e.g. "eternal", "worker" — used by workloads.
        self.role = role

        self.state = ThreadState.NEW
        self.detached = False
        self.joined = False
        self.result: Any = None
        self.error: BaseException | None = None
        #: Thread waiting in Join() on us (at most one, enforced).
        self.joiner: "SimThread | None" = None

        #: Monitors currently held, innermost last (for diagnostics and
        #: deadlock reporting).
        self.held_monitors: list["Monitor"] = []
        #: What the thread is blocked on (Monitor/CV/Channel/SimThread).
        self.blocked_on: Any = None
        #: Remaining CPU of an in-progress Compute, if preempted mid-burn.
        self.pending_compute = 0
        #: Value to send into the generator at next resume.
        self.pending_send: Any = None
        #: Exception to throw into the generator at next resume.
        self.pending_throw: BaseException | None = None
        #: Sim time of the last dispatch (start of current run interval).
        self.last_dispatched: int | None = None
        #: Set when a CV wait ended by notification rather than timeout.
        self.wake_was_notify = False
        #: Bumped on every blocking wait; lazily invalidates stale timeout
        #: entries in the kernel's timed-waiter heap.
        self.wait_epoch = 0
        #: ``wait_epoch`` value at the most recent ``_arm_timed`` — the
        #: current block has a live timeout iff ``timed_epoch ==
        #: wait_epoch``.  The waits-for watchdog uses this to exclude
        #: self-waking (timed) waits from deadlock cycles.
        self.timed_epoch = -1
        #: Deferred continuation to run when next dispatched, e.g.
        #: ("reacquire", monitor, was_notify) after a CV wake.
        self.resume_action: tuple | None = None

        self.stats = ThreadStats()

    # -- predicates ------------------------------------------------------

    @property
    def alive(self) -> bool:
        return self.state is not ThreadState.DONE

    @property
    def lifetime(self) -> int | None:
        """Thread lifetime in µs, or None while still alive."""
        if self.ended_at is None:
            return None
        return self.ended_at - self.created_at

    def ancestry(self) -> Iterator["SimThread"]:
        """Yield parent, grandparent, ... up to a generation-0 root."""
        node = self.parent
        while node is not None:
            yield node
            node = node.parent

    def __repr__(self) -> str:
        return (
            f"<SimThread {self.tid} {self.name!r} prio={self.priority} "
            f"{self.state.value}>"
        )
