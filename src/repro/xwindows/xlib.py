"""The thread-safe-ified Xlib of Section 5.6.

"One approach uses Xlib, modified only to make it thread-safe.  ...  the
modified Xlib allowed any client thread to do the read with a monitor lock
on the library providing serialization.  There were two problems with
this: priority inversion and honoring the clients' timeout parameter on
the GetEvent routine.  When a client thread blocks on the read call it
holds the library mutex.  ...  Therefore, each read had to be done with a
short timeout after which the mutex was released, allowing other threads
to continue."

And the flush coupling: "The X specification requires that the output
queue be flushed whenever a read is done on the input stream.  The
modified Xlib retained this behavior, but the short timeout on the read
operations ... caused an excessive number of output flushes, defeating
the throughput gains of batching requests."

Both pathologies are modelled faithfully so the Xlib-vs-Xl case study can
measure them: reads hold the library mutex (the inversion window), retry
on a short timeout, and flush the output queue before every read attempt.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.kernel.channel import Channel
from repro.kernel.primitives import Channelreceive
from repro.kernel.simtime import msec
from repro.sync.monitor import Monitor
from repro.xwindows.server import XServer


class ModifiedXlib:
    """Xlib with one library mutex bolted on."""

    def __init__(
        self,
        server: XServer,
        connection: Channel,
        *,
        read_timeout: int = msec(50),
        flush_before_read: bool = True,
    ) -> None:
        self.server = server
        self.connection = connection
        self.read_timeout = read_timeout
        #: The X-spec rule.  Turning it off demonstrates *why* it exists:
        #: a query sitting unflushed while its issuer waits for the reply
        #: hangs the client ("any commands that might trigger a response
        #: [must be] delivered to the server before the client waits").
        self.flush_before_read = flush_before_read
        self.lock = Monitor("Xlib")
        self.out_queue: deque[Any] = deque()
        self.event_queue: deque[Any] = deque()
        self.flushes = 0
        #: Reads that timed out and had to release/retry the mutex.
        self.read_retries = 0

    # -- output side -------------------------------------------------------

    def queue_request(self, request: Any):
        """Queue an output request (generator).  Batching happens "on a
        higher level"; the library just accumulates."""
        yield self.lock.enter
        try:
            self.out_queue.append(request)
        finally:
            yield self.lock.exit

    def flush(self):
        """Explicit flush, triggered by "external knowledge of when the
        painting is finished" (generator)."""
        yield self.lock.enter
        try:
            yield from self._flush_locked()
        finally:
            yield self.lock.exit

    def _flush_locked(self):
        if self.out_queue:
            batch = list(self.out_queue)
            self.out_queue.clear()
            self.flushes += 1
            yield from self.server.submit(batch)

    # -- input side ----------------------------------------------------------

    def get_event(self, timeout: int | None = None):
        """GetEvent with a client timeout (generator).

        The client's timeout cannot be honoured directly — "it is not
        possible for other threads to timeout on their attempt to obtain
        the library mutex" — so the read loops on a short internal
        timeout, releasing the mutex between attempts.  Returns an event,
        or None once the client timeout has elapsed.
        """
        waited = 0
        while True:
            yield self.lock.enter
            try:
                if self.event_queue:
                    return self.event_queue.popleft()
                # "The X specification requires that the output queue be
                # flushed whenever a read is done on the input stream."
                if self.flush_before_read:
                    yield from self._flush_locked()
                # The inversion window: we block on the connection while
                # holding the library mutex.
                event = yield Channelreceive(
                    self.connection, timeout=self.read_timeout
                )
                if event is not None:
                    return event
                self.read_retries += 1
            finally:
                yield self.lock.exit
            # Releasing the mutex is the point of the short timeout —
            # "allowing other threads to continue" — so the retry loop
            # must actually let them run before re-acquiring.
            from repro.kernel.primitives import Yield

            yield Yield()
            waited += self.read_timeout
            if timeout is not None and waited >= timeout:
                return None
