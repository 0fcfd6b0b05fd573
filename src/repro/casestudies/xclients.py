"""Case study C5 (Section 5.6): modified Xlib vs Xl.

A mixed interactive load — a client thread painting in bursts (a window
repaint is many requests back-to-back) while another client thread sits
in GetEvent with a timeout — run against both library architectures.
The paper's observations, all measured here:

* modified Xlib: reads hold the library mutex, so the painter stalls
  behind a blocked GetEvent until its short read timeout expires
  ("it is not possible for other threads to timeout on their attempt to
  obtain the library mutex" — and everyone else queues behind it);
* modified Xlib: flushing is coupled to reads, so batches fragment on
  the read-retry cadence — "an excessive number of output flushes,
  defeating the throughput gains of batching requests";
* Xl: the reader thread blocks indefinitely on the connection, GetEvent
  timeouts ride the CV timeout mechanism, flushing is decoupled, and the
  slack process delivers each burst as one batch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel import Kernel, KernelConfig
from repro.kernel.primitives import GET_TIME, Compute, Pause
from repro.kernel.simtime import msec, sec
from repro.xwindows.buffer_thread import PaintRequest
from repro.xwindows.server import XServer
from repro.xwindows.xl import XlClient
from repro.xwindows.xlib import ModifiedXlib

#: The default mixed load: 8 repaint bursts of 12 requests each, with
#: ~10 ms of rendering between requests — slower than the modified
#: Xlib's 50 ms read-retry cadence, so flush-on-read lands mid-burst.
BURSTS = 8
BURST_SIZE = 12
BURST_GAP = msec(200)
REQUEST_WORK = msec(10)


@dataclass
class XClientResult:
    library: str
    paints: int
    flushes: int
    mean_batch: float
    events_received: int
    lock_contention_blocks: int
    getevent_timeouts_honoured: int
    #: When the painter finished its last burst (stall indicator).
    painting_done_at: int
    #: Total server transaction time (flush overheads + request work).
    server_busy: int
    requests_shipped: int


def _drive(kernel, server, paint, get_event, lock_blocks, *, events,
           event_period, seed, finish=None):
    """Shared load driver for both libraries."""
    received = [0]
    timeouts_honoured = [0]
    done = {"painting": 0}

    def painter():
        for burst in range(BURSTS):
            for i in range(BURST_SIZE):
                yield Compute(REQUEST_WORK)  # render one region
                yield from paint(PaintRequest(region=f"r{i % 4}"))
            yield Pause(BURST_GAP)
        if finish is not None:
            # "external knowledge of when the painting is finished to
            # trigger a flush of the batched requests" (modified Xlib).
            yield from finish()
        done["painting"] = yield GET_TIME

    def event_reader():
        while received[0] < events:
            event = yield from get_event(msec(150))
            if event is None:
                timeouts_honoured[0] += 1
            else:
                received[0] += 1

    kernel.fork_root(painter, name="painter", priority=4)
    kernel.fork_root(event_reader, name="event-reader", priority=4)
    for i in range(events):
        kernel.post_at(
            (i + 1) * event_period, lambda k: server.deliver_event("key-event")
        )
    kernel.run_for(sec(8))
    return received[0], timeouts_honoured[0], done["painting"]


def run_xlib(
    *,
    events: int = 5,
    event_period: int = msec(400),
    seed: int = 0,
) -> XClientResult:
    """The thread-safe-ified Xlib under the mixed load."""
    kernel = Kernel(KernelConfig(seed=seed))
    connection = kernel.channel("x-connection")
    server = XServer(events=connection)
    xlib = ModifiedXlib(server, connection)

    def paint(request):
        yield from xlib.queue_request(request)

    def get_event(timeout):
        event = yield from xlib.get_event(timeout=timeout)
        return event

    received, timeouts, painted = _drive(
        kernel, server, paint, get_event, xlib.lock,
        events=events, event_period=event_period, seed=seed,
        finish=xlib.flush,
    )
    result = XClientResult(
        library="modified-xlib",
        paints=BURSTS * BURST_SIZE,
        flushes=server.flushes,
        mean_batch=server.mean_batch_size,
        events_received=received,
        lock_contention_blocks=xlib.lock.blocks,
        getevent_timeouts_honoured=timeouts,
        painting_done_at=painted,
        server_busy=server.busy_time,
        requests_shipped=server.requests_received,
    )
    kernel.shutdown()
    return result


def run_xl(
    *,
    events: int = 5,
    event_period: int = msec(400),
    seed: int = 0,
) -> XClientResult:
    """Xl (reader thread + slack-process batching) under the same load."""
    kernel = Kernel(KernelConfig(seed=seed))
    connection = kernel.channel("x-connection")
    server = XServer(events=connection)
    client = XlClient(server, connection)
    for proc, name, priority in client.threads():
        kernel.fork_root(proc, name=name, priority=priority, role="eternal")

    def paint(request):
        yield from client.paint(request)

    def get_event(timeout):
        event = yield from client.get_event(timeout)
        return event

    received, timeouts, painted = _drive(
        kernel, server, paint, get_event, client.event_queue.monitor,
        events=events, event_period=event_period, seed=seed,
    )
    result = XClientResult(
        library="xl",
        paints=BURSTS * BURST_SIZE,
        flushes=server.flushes,
        mean_batch=server.mean_batch_size,
        events_received=received,
        lock_contention_blocks=client.event_queue.monitor.blocks,
        getevent_timeouts_honoured=timeouts,
        painting_done_at=painted,
        server_busy=server.busy_time,
        requests_shipped=server.requests_received,
    )
    kernel.shutdown()
    return result


def run_comparison(**kwargs) -> dict[str, XClientResult]:
    return {"xlib": run_xlib(**kwargs), "xl": run_xl(**kwargs)}
