"""Mesa monitors.

"A monitor is a set of procedures, or module, that share a mutual exclusion
lock, or mutex. ... The Mesa compiler automatically inserts locking code
into monitored procedures."  (Section 2.)

We model both styles the paper mentions:

* module monitors — subclass :class:`MonitoredModule` and decorate its
  generator methods with ``@monitored``; the decorator plays the role of
  the compiler-inserted locking code;
* monitored records — "associating locks with data structures instead of
  with modules ... in order to obtain finer grain locking": just give each
  record its own :class:`Monitor` and wrap accesses in :func:`entered`.

The Monitor object itself is passive data (owner, entry queue, counters)
plus its two shared traps, ``monitor.enter`` and ``monitor.exit``; the
kernel's Enter/Exit/Wait trap handlers implement the semantics,
including preemption while holding locks and FIFO handoff on exit.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from typing import TYPE_CHECKING, Any, Callable, Generator

from repro.kernel.primitives import Enter, Exit

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.thread import SimThread

_uid_counter = itertools.count(1)


class Monitor:
    """One mutual-exclusion lock with a FIFO entry queue."""

    __slots__ = (
        "uid",
        "name",
        "owner",
        "entry_queue",
        "enters",
        "blocks",
        "boost_restore",
        "_enter",
        "_exit",
    )

    def __init__(self, name: str) -> None:
        self.uid = next(_uid_counter)
        self.name = name
        self.owner: "SimThread | None" = None
        #: Threads waiting for the mutex, FIFO ("Other threads wanting to
        #: enter the monitor are enqueued on the mutex").
        self.entry_queue: deque["SimThread"] = deque()
        self.enters = 0
        #: Entries that found the mutex held (contention, Table 2 text).
        self.blocks = 0
        #: Pre-boost priority of the owner, when priority inheritance
        #: (the beyond-paper ablation) has boosted it.
        self.boost_restore: int | None = None
        self._enter: Enter | None = None
        self._exit: Exit | None = None

    @property
    def enter(self) -> Enter:
        """The trap that enters this monitor, built on first use.

        Traps are immutable, so every entry can yield the same one.  It
        is built lazily because most monitors a world creates are never
        entered.
        """
        trap = self._enter
        if trap is None:
            trap = self._enter = Enter(self)
        return trap

    @property
    def exit(self) -> Exit:
        """The trap that exits this monitor, built on first use."""
        trap = self._exit
        if trap is None:
            trap = self._exit = Exit(self)
        return trap

    def __repr__(self) -> str:
        owner = self.owner.name if self.owner else None
        return f"<Monitor {self.name!r} owner={owner} queue={len(self.entry_queue)}>"


def entered(monitor: Monitor, body: Generator[Any, Any, Any]):
    """Run a sub-generator while holding ``monitor``.

    Usage inside a thread body::

        result = yield from entered(record.lock, update(record))

    The mutex is released on normal return *and* when an exception unwinds
    through the body — Mesa's compiler-generated epilogue did the same.
    """
    yield monitor.enter
    try:
        result = yield from body
    finally:
        yield monitor.exit
    return result


def monitored(method: Callable[..., Generator[Any, Any, Any]]):
    """Make a generator method of a :class:`MonitoredModule` monitored.

    Equivalent to the Mesa compiler inserting lock/unlock around an ENTRY
    procedure.  The receiving object must expose a ``monitor`` attribute.
    """

    @functools.wraps(method)
    def wrapper(self, *args: Any, **kwargs: Any):
        yield self.monitor.enter
        try:
            result = yield from method(self, *args, **kwargs)
        finally:
            yield self.monitor.exit
        return result

    wrapper.__monitored__ = True
    return wrapper


class MonitoredModule:
    """Base class for module-style monitors.

    Subclasses declare generator methods decorated with ``@monitored``;
    each instance gets its own mutex, like each instance of a Mesa
    monitored module::

        class Counter(MonitoredModule):
            def __init__(self):
                super().__init__("Counter")
                self.value = 0

            @monitored
            def increment(self):
                self.value += 1
                return self.value
                yield  # makes this a generator even with no waits
    """

    def __init__(self, name: str) -> None:
        self.monitor = Monitor(name)
