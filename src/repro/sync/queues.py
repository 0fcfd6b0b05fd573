"""CV-based queues: the connective tissue of pumps and pipelines.

"Bounded buffers and external devices are two common sources and sinks
[for pumps].  The former occur in several implementations in our systems
for connecting threads together."  (Section 4.2.)

Both queues follow the canonical Mesa producer-consumer pattern: a monitor
protecting the data, one CV per waited-for condition, WAIT always inside a
WHILE loop.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.kernel.primitives import Notify, Wait
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor


def reuse_wait(wait: Wait, timeout: int | None) -> Wait:
    """``wait`` if it already waits ``timeout``, else a WAIT on the same
    CV that does.  A queue keeps the WAIT its gets last yielded: every
    caller passes the same timeout (a frontend's poll, or none), so it
    is built once rather than once per blocking pass."""
    if wait.timeout == timeout:
        return wait
    return Wait(wait.condition, timeout)


class UnboundedQueue:
    """FIFO with blocking get; put never blocks.

    The shape used by serializers and work queues: producers enqueue and
    NOTIFY, one or more consumer threads drain.
    """

    def __init__(
        self,
        name: str,
        *,
        get_timeout: int | None = None,
        carry: dict | None = None,
    ) -> None:
        self.name = name
        self.monitor = Monitor(f"{name}.lock")
        self.nonempty = ConditionVariable(
            self.monitor, f"{name}.nonempty", timeout=get_timeout
        )
        #: The NOTIFY a put makes, built once (traps are immutable), and
        #: the WAIT the last blocking get made (see :func:`reuse_wait`).
        self._notify_nonempty = Notify(self.nonempty)
        self._wait_nonempty = Wait(self.nonempty)
        self.items: deque[Any] = deque()
        self.puts = 0
        self.gets = 0
        #: Optional custody ledger: ``get`` records the popped item here
        #: (keyed by ``item.rid``) *before* releasing the monitor, so a
        #: consumer killed on the Exit trap — item popped, never
        #: returned — leaves an audit trail instead of a silent loss.
        #: The consumer removes the entry once the item is safely held
        #: elsewhere.  None (the default) costs nothing.
        self.carry = carry

    def put(self, item: Any):
        """Enqueue and wake one consumer.  (Generator; use ``yield from``.)"""
        yield self.monitor.enter
        try:
            self.items.append(item)
            self.puts += 1
            yield self._notify_nonempty
        finally:
            yield self.monitor.exit

    def get(self, timeout: int | None = None):
        """Dequeue the oldest item; blocks while empty.

        Returns the item, or ``None`` if ``timeout`` (or the queue's
        default get timeout) elapsed with the queue still empty.
        """
        yield self.monitor.enter
        try:
            while not self.items:
                wait = self._wait_nonempty = reuse_wait(self._wait_nonempty, timeout)
                notified = yield wait
                if not notified and not self.items:
                    return None
            self.gets += 1
            item = self.items.popleft()
            if self.carry is not None:
                self.carry[item.rid] = item
            return item
        finally:
            yield self.monitor.exit

    def get_all(self):
        """Drain every queued item without blocking (may return [])."""
        yield self.monitor.enter
        try:
            drained = list(self.items)
            self.items.clear()
            self.gets += len(drained)
            return drained
        finally:
            yield self.monitor.exit

    def prune(self, predicate: Any):
        """Remove and return every queued item matching ``predicate``
        (generator) — the balancer's wedged-shard drain."""
        yield self.monitor.enter
        try:
            kept: deque[Any] = deque()
            removed: list[Any] = []
            for item in self.items:
                (removed if predicate(item) else kept).append(item)
            self.items = kept
            return removed
        finally:
            yield self.monitor.exit

    def __len__(self) -> int:
        return len(self.items)


class BoundedQueue:
    """A bounded FIFO: the classic bounded buffer, and an admission queue.

    As a pipeline stage it applies backpressure by blocking: ``put``
    waits while full, ``get`` while empty.  A server's admission queue
    must say **no** instead: ``try_put`` rejects immediately when full,
    and admission never parks a putter.  Timed ``get`` lets a pool of
    consumer threads poll without parking forever on a NOTIFY that a
    fault (or a bug) might lose.

    All methods are generators run on the calling thread, following the
    canonical Mesa pattern: one monitor, one CV per waited-for condition,
    WAIT always re-checked in a WHILE loop.
    """

    def __init__(
        self,
        name: str,
        capacity: int,
        *,
        get_timeout: int | None = None,
        carry: dict | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.name = name
        self.capacity = capacity
        self.monitor = Monitor(f"{name}.lock")
        self.nonempty = ConditionVariable(
            self.monitor, f"{name}.nonempty", timeout=get_timeout
        )
        self.nonfull = ConditionVariable(self.monitor, f"{name}.nonfull")
        #: The NOTIFY traps, built once (traps are immutable), and the
        #: WAIT the last blocking get made (see :func:`reuse_wait`).
        self._notify_nonempty = Notify(self.nonempty)
        self._notify_nonfull = Notify(self.nonfull)
        self._wait_nonempty = Wait(self.nonempty)
        self.items: deque[Any] = deque()
        self.puts = 0
        self.gets = 0
        #: Optional custody ledger (see :class:`UnboundedQueue`).
        self.carry = carry
        #: ``try_put`` calls refused because the queue was full (load
        #: shed upstream).
        self.rejects = 0
        #: High-water mark, for SLO diagnostics.
        self.max_depth = 0

    def try_put(self, item: Any):
        """Non-blocking put: True if enqueued, False if full (generator)."""
        yield self.monitor.enter
        try:
            if len(self.items) >= self.capacity:
                self.rejects += 1
                return False
            self._append(item)
            yield self._notify_nonempty
            return True
        finally:
            yield self.monitor.exit

    def put(self, item: Any):
        """Enqueue, blocking while full (generator)."""
        yield self.monitor.enter
        try:
            while len(self.items) >= self.capacity:
                yield Wait(self.nonfull)
            self._append(item)
            yield self._notify_nonempty
        finally:
            yield self.monitor.exit

    def get(self, timeout: int | None = None):
        """Dequeue the oldest item; None if still empty after ``timeout``
        (or the queue's default get timeout).  (Generator.)"""
        yield self.monitor.enter
        try:
            while not self.items:
                wait = self._wait_nonempty = reuse_wait(self._wait_nonempty, timeout)
                notified = yield wait
                if not notified and not self.items:
                    return None
            item = self.items.popleft()
            self.gets += 1
            if self.carry is not None:
                self.carry[item.rid] = item
            yield self._notify_nonfull
            return item
        finally:
            yield self.monitor.exit

    def prune(self, predicate: Any):
        """Remove and return every queued item matching ``predicate``
        (generator) — the deadline sleeper's expiry sweep.  Wakes one
        blocked putter per freed slot."""
        yield self.monitor.enter
        try:
            kept: deque[Any] = deque()
            removed: list[Any] = []
            for item in self.items:
                (removed if predicate(item) else kept).append(item)
            self.items = kept
            for _ in removed:
                yield self._notify_nonfull
            return removed
        finally:
            yield self.monitor.exit

    def _append(self, item: Any) -> None:
        self.items.append(item)
        self.puts += 1
        if len(self.items) > self.max_depth:
            self.max_depth = len(self.items)

    def __len__(self) -> int:
        return len(self.items)
