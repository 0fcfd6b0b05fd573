"""Device channels: the boundary between the outside world and threads.

In the real systems, keyboard and mouse interrupts, network packets and
X-server bytes arrive from outside the thread world.  Workload generators
play that role here: they run as timed kernel events (not as threads) and
``post`` items into channels; simulated threads block on
``Channelreceive`` to consume them.

A channel is the only place an external event may wake a thread, which
keeps the Mesa rule intact that NOTIFY happens only under the monitor —
device interrupts do not go through monitors, exactly as in PCR where the
IO layer sits below the thread primitives.
"""

from __future__ import annotations

import itertools
from collections import deque
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.thread import SimThread

_uid_counter = itertools.count(1)


class Channel:
    """An unbounded FIFO fed by external events, drained by threads.

    Thread-side use (inside a thread body)::

        event = yield Channelreceive(keyboard, timeout=msec(500))

    External side (inside a workload event)::

        kernel.post_at(t, lambda k: keyboard.post(KeyStroke("a")))
    """

    def __init__(self, name: str) -> None:
        self.uid = next(_uid_counter)
        self.name = name
        self.items: deque[Any] = deque()
        #: Threads blocked in Channelreceive, FIFO.
        self.waiters: deque["SimThread"] = deque()
        #: Set by the kernel when the channel is registered, so ``post``
        #: can wake waiters through the kernel.
        self._kernel: Any = None

    def bind(self, kernel: Any) -> "Channel":
        """Associate the channel with a kernel (done once, at creation)."""
        if self._kernel is not None and self._kernel is not kernel:
            raise ValueError(f"channel {self.name!r} already bound")
        self._kernel = kernel
        return self

    def post(self, item: Any) -> None:
        """Deliver an item; wakes the first blocked receiver, if any.

        Must be called from kernel-event context (a workload callback) or
        from host code between ``run`` calls — not from thread bodies,
        which should use monitor-protected queues instead.
        """
        if self._kernel is None:
            raise ValueError(f"channel {self.name!r} not bound to a kernel")
        self._kernel._channel_post(self, item)

    def __repr__(self) -> str:
        return f"<Channel {self.name!r} depth={len(self.items)}>"
