"""The trap vocabulary: how simulated thread code talks to the kernel.

Thread bodies are Python generator functions.  They request kernel services
by ``yield``-ing a trap object; the kernel performs the operation (possibly
blocking the thread, possibly advancing simulated time) and resumes the
generator with the operation's result.  Sub-procedures compose with
``yield from``.

Example thread body::

    def worker(buffer):
        yield Compute(usec(200))            # burn 200 us of CPU
        item = yield from buffer.get()      # sync objects wrap traps
        child = yield Fork(helper, args=(item,))
        result = yield Join(child)
        return result

The vocabulary mirrors the Mesa/PCR primitives in Section 2 of the paper
(FORK, JOIN, WAIT, NOTIFY, BROADCAST, YIELD) plus the extensions Sections
5-6 discuss (YieldButNotToMe, directed yield, priority changes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - import cycle guards
    from repro.kernel.channel import Channel
    from repro.kernel.thread import SimThread
    from repro.sync.condition import ConditionVariable
    from repro.sync.monitor import Monitor

#: The type of a thread body: a generator function over traps.
ThreadProc = Callable[..., Any]


class Trap:
    """Base class for everything a thread may yield to the kernel."""

    __slots__ = ()


@dataclass(frozen=True)
class Compute(Trap):
    """Consume ``amount`` microseconds of CPU time.  Preemptible.

    A higher-priority wakeup or the end of the timeslice can suspend the
    computation partway; the kernel tracks the remainder and the thread
    resumes computing when rescheduled, exactly like real CPU burn.
    """

    amount: int

    def __post_init__(self) -> None:
        if self.amount < 0:
            raise ValueError("Compute amount must be >= 0")


@dataclass(frozen=True)
class Fork(Trap):
    """Create a new thread running ``proc(*args, **kwargs)``.

    Returns the new :class:`SimThread`.  The child inherits the forker's
    priority unless ``priority`` is given.  Under the ``raise`` fork-failure
    policy this raises :class:`ForkFailed` inside the forking thread when
    thread resources are exhausted; under ``wait`` the forker blocks until
    a thread slot frees up (Section 5.4).
    """

    proc: ThreadProc
    args: tuple = ()
    kwargs: dict = field(default_factory=dict)
    name: str | None = None
    priority: int | None = None
    detached: bool = False


@dataclass(frozen=True)
class Join(Trap):
    """Wait for ``thread`` to finish; returns its result value.

    A thread may be JOINed at most once, and never after DETACH.  If the
    target died from an exception, JOIN re-raises it (wrapped in
    :class:`UncaughtThreadError`) in the joiner.
    """

    thread: "SimThread"


@dataclass(frozen=True)
class Detach(Trap):
    """Declare that ``thread`` will never be JOINed.

    Lets the kernel recover the thread's resources (its stack reservation
    and table slot) immediately when it terminates.
    """

    thread: "SimThread"


@dataclass(frozen=True)
class Yield(Trap):
    """Run the scheduler: requeue the caller behind equal-priority peers."""


@dataclass(frozen=True)
class YieldButNotToMe(Trap):
    """Give the CPU to the highest-priority ready thread *other than* the
    caller, if one exists — even a lower-priority one (Section 5.2).

    The donation lasts until the end of the current timeslice (Section 6.3:
    "The end of a timeslice ends the effect of a YieldButNotToMe").
    """


@dataclass(frozen=True)
class DirectedYield(Trap):
    """Donate the rest of the caller's timeslice to a specific thread.

    Used by the SystemDaemon (Section 6.2) to give every ready thread some
    CPU regardless of priority.  No-op if the target is not ready.
    """

    target: "SimThread"


@dataclass(frozen=True)
class Pause(Trap):
    """Sleep for ``duration`` microseconds.

    Wakeups have timeslice granularity: the sleeper becomes ready at the
    first scheduler tick at or after its deadline, which is why "the
    smallest sleep interval is the remainder of the scheduler quantum"
    (Section 6.3).
    """

    duration: int

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError("Pause duration must be >= 0")


@dataclass(frozen=True)
class GetSelf(Trap):
    """Return the calling :class:`SimThread`."""


@dataclass(frozen=True)
class GetTime(Trap):
    """Return the current simulated time in microseconds."""


@dataclass(frozen=True)
class SetPriority(Trap):
    """Change the caller's priority (a thread "can change its own
    priority", Section 2).  Returns the previous priority."""

    priority: int


@dataclass(frozen=True)
class Enter(Trap):
    """Acquire a monitor's mutex; blocks (FIFO) if another thread holds it.

    Thread code yields the monitor's shared instance, ``monitor.enter``,
    usually through :func:`repro.sync.monitor.entered` or the
    ``@monitored`` decorator.
    """

    monitor: "Monitor"


@dataclass(frozen=True)
class Exit(Trap):
    """Release a monitor's mutex; hands it to the first queued waiter.

    Thread code yields the monitor's shared instance, ``monitor.exit``.
    """

    monitor: "Monitor"


@dataclass(frozen=True)
class Wait(Trap):
    """Mesa WAIT: atomically release the CV's monitor and sleep on the CV.

    On wake (NOTIFY, BROADCAST, or timeout) the thread re-competes for the
    monitor before WAIT returns.  Returns ``True`` if woken by a
    notification, ``False`` on timeout — but per Mesa semantics the caller
    must recheck its predicate either way (WAIT belongs in a WHILE loop).

    ``timeout`` overrides the CV's default timeout for this wait only;
    ``None`` means "use the CV default".
    """

    condition: "ConditionVariable"
    timeout: int | None = None


@dataclass(frozen=True)
class Notify(Trap):
    """Wake one thread waiting on the CV (exactly-one-waiter in Mesa mode).

    Must be invoked with the CV's monitor held — the Mesa compiler enforced
    this statically; we enforce it dynamically.
    """

    condition: "ConditionVariable"


@dataclass(frozen=True)
class Broadcast(Trap):
    """Wake every thread waiting on the CV."""

    condition: "ConditionVariable"


@dataclass(frozen=True)
class Channelreceive(Trap):
    """Receive from a device channel (external-event boundary).

    Blocks until an item is available or ``timeout`` elapses; returns the
    item, or ``None`` on timeout.  Channels model device input (keyboard,
    mouse, network, X-server socket) whose producers live outside the
    simulated thread world.
    """

    channel: "Channel"
    timeout: int | None = None


@dataclass(frozen=True)
class Annotate(Trap):
    """Emit a user-level trace annotation (shows up in the event trace)."""

    label: str
    data: Any = None


@dataclass(frozen=True)
class MemWrite(Trap):
    """Store to a shared :class:`SimVar` under the configured memory model.

    Under ``tso``/``pso`` the store lands in the writing thread's store
    buffer and becomes visible to other threads only when it drains: by
    age, by a fence, or by a ``mem.drain`` decision (Section 5.5).
    """

    var: Any
    value: Any


@dataclass(frozen=True)
class MemRead(Trap):
    """Load from a shared :class:`SimVar`.

    The thread sees its own buffered stores first; under ``tso``/``pso``
    it may observe stale data another thread has not yet drained.
    """

    var: Any


@dataclass(frozen=True)
class Fence(Trap):
    """Memory barrier: drain the calling thread's store buffer.

    Monitor entry/exit fence implicitly; explicit fences are for the
    lock-free publication idioms the weak-memory case study examines.
    """
