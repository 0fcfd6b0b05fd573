"""Xl: the from-scratch multi-threaded X client library of Section 5.6.

"Xl introduced a new serializing thread that was associated with the I/O
connection.  The job of this thread was solely to read from the I/O
connection and dispatch events to waiting threads."  Benefits the paper
lists, all reproduced here:

* "the client timeout is handled perfectly by the condition variable
  timeout mechanism" — GetEvent is a CV-timed queue get, no library mutex
  held while blocked;
* "priority inversion can only occur during the short time period when a
  low-priority thread checks to see if there are events on the input
  queue" — the only lock is the event queue's, held for a dequeue;
* "there is no need to couple the input and output together.  The reading
  thread can block indefinitely and other mechanisms such as an explicit
  flush by clients or a periodic timeout by a maintenance thread ensure
  that output gets flushed in a timely manner";
* graphics batching via the slack process, making the server connection
  asynchronous.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.channel import Channel
from repro.kernel.primitives import Channelreceive, Pause
from repro.kernel.simtime import msec
from repro.paradigms.slack import GATHER_YBNTM, SlackProcess
from repro.sync.queues import UnboundedQueue
from repro.xwindows.server import XServer


class XlClient:
    """The Xl library: reader thread + slack-process output batching."""

    def __init__(
        self,
        server: XServer,
        connection: Channel,
        *,
        strategy: str = GATHER_YBNTM,
        maintenance_period: int = msec(250),
    ) -> None:
        self.server = server
        self.connection = connection
        self.maintenance_period = maintenance_period
        #: Dispatched input events, consumed by GetEvent with CV timeouts.
        self.event_queue = UnboundedQueue("Xl.events")
        #: Output batching: imaging threads put requests here.
        self.out_queue = UnboundedQueue("Xl.requests")
        self._slack = SlackProcess(
            "Xl.buffer",
            self.out_queue,
            self._deliver,
            strategy=strategy,
        )
        self.events_dispatched = 0
        self.maintenance_flushes = 0

    # -- thread bodies -------------------------------------------------------

    def reader_proc(self):
        """The serializing reader thread: blocks indefinitely on the
        connection, dispatches each event — its whole job."""
        while True:
            event = yield Channelreceive(self.connection)  # no timeout
            self.events_dispatched += 1
            yield from self.event_queue.put(event)

    def buffer_proc(self):
        """The slack-process output thread (asynchronous connection)."""
        yield from self._slack.proc()

    def maintenance_proc(self):
        """The timeliness safety net: flush requests the buffer thread
        has left sitting for a full period — "a periodic timeout by a
        maintenance thread ensure[s] that output gets flushed in a
        timely manner".  It must not race the buffer for fresh bursts,
        so it only acts on items it already saw last period."""
        seen: set[int] = set()
        while True:
            yield Pause(self.maintenance_period)
            stale = [item for item in self.out_queue.items if id(item) in seen]
            seen = {id(item) for item in self.out_queue.items}
            if stale:
                pending = yield from self.out_queue.get_all()
                if pending:
                    self.maintenance_flushes += 1
                    yield from self.server.submit(pending)

    def threads(self) -> list[tuple[Any, str, int]]:
        """(proc, name, priority) for the library's three service threads.

        The reader is a serializer on the critical input path (high
        priority); the buffer and maintenance threads are helpers.
        """
        return [
            (self.reader_proc, "Xl.reader", 5),
            # The buffer thread sits *below* client threads: it gathers
            # whole bursts while painters run and flushes when they rest —
            # the §5.2 lesson applied (no high-priority slack process).
            (self.buffer_proc, "Xl.buffer", 3),
            (self.maintenance_proc, "Xl.maintenance", 3),
        ]

    # -- client API ------------------------------------------------------------

    def paint(self, request: Any):
        """Queue a graphics request (generator); the slack process batches
        and merges before the server sees it."""
        yield from self.out_queue.put(request)

    def get_event(self, timeout: int | None = None):
        """GetEvent: a CV-timed dequeue — the clean timeout story
        (generator; returns None on timeout)."""
        event = yield from self.event_queue.get(timeout)
        return event

    # -- internals ----------------------------------------------------------

    def _deliver(self, batch: list[Any]):
        yield from self.server.submit(batch)
