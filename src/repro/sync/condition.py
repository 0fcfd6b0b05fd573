"""Mesa condition variables.

"Each CV represents a state of the module's data structures (a condition)
and a queue of threads waiting for that condition to become true."
(Section 2.)

Key Mesa properties implemented by the kernel's Wait/Notify handlers:

* WAIT atomically releases the monitor and queues the thread; on wake the
  thread re-competes for the mutex before WAIT returns;
* NOTIFY has *exactly one waiter wakens* semantics (configurable to
  *at least one* for the property tests);
* a WAIT may time out — the timeout interval is associated with the CV,
  and wakeups have scheduler-tick granularity (Sections 2 and 6.3);
* the condition is NOT guaranteed on return: WAIT belongs in a WHILE loop.
  :func:`await_condition` packages the correct idiom;
  :func:`await_condition_if_broken` packages the §5.3 anti-pattern for the
  wait-bug case studies, and nothing else should use it.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Callable

from repro.kernel.primitives import Wait

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.thread import SimThread
    from repro.sync.monitor import Monitor

_uid_counter = itertools.count(1)


class ConditionVariable:
    """A Mesa CV bound to the monitor protecting its condition."""

    __slots__ = (
        "uid",
        "name",
        "monitor",
        "default_timeout",
        "waiters",
        "waits",
        "timeouts",
        "notifies",
    )

    def __init__(
        self,
        monitor: "Monitor",
        name: str,
        timeout: int | None = None,
    ) -> None:
        self.uid = next(_uid_counter)
        self.name = name
        self.monitor = monitor
        #: Default timeout for WAITs on this CV; None waits forever.
        #: ("WAIT operations may time out depending on the timeout interval
        #: associated with the CV.")
        self.default_timeout = timeout
        self.waiters: deque["SimThread"] = deque()
        self.waits = 0
        self.timeouts = 0
        self.notifies = 0

    def __repr__(self) -> str:
        return f"<CV {self.name!r} waiters={len(self.waiters)}>"


def await_condition(
    cv: ConditionVariable,
    predicate: Callable[[], bool],
    timeout: int | None = None,
):
    """The prototypical correct WAIT: ``WHILE NOT condition DO WAIT``.

    Must be called with ``cv``'s monitor held.  Rechecks ``predicate``
    after every wake, so it is insensitive to exactly-one vs at-least-one
    NOTIFY and to timeouts — the property the paper highlights for
    loop-based waiting.
    """
    while not predicate():
        yield Wait(cv, timeout)


def await_condition_if_broken(
    cv: ConditionVariable,
    predicate: Callable[[], bool],
    timeout: int | None = None,
):
    """The §5.3 anti-pattern: ``IF NOT condition THEN WAIT``.

    Checks once, waits once, and assumes the condition afterwards.  "The
    practice has been a continuing source of bugs" — kept here only so the
    wait-bug case study can demonstrate the failure; never use it.
    """
    if not predicate():
        yield Wait(cv, timeout)
