"""The keystroke-echo critical path.

"The time between when a key is pressed and the corresponding glyph is
echoed to a window is very important to the usability of these systems."
(Section 1.)  This module builds that path on the simulated kernel:

    keyboard device ──> Notifier (high prio, defers work)
                   ──> imaging thread (renders the glyph, queues paint
                        requests)
                   ──> buffer thread (slack process)
                   ──> X server

and measures, per keystroke, the *echo latency*: key press to the flush
that carried its glyph to the server.  The buffer thread's gather
strategy and the scheduler quantum are the experimental variables of the
YieldButNotToMe and quantum case studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel import Kernel, KernelConfig
from repro.kernel.primitives import GET_TIME, Channelreceive, Compute
from repro.kernel.simtime import msec, usec
from repro.sync.queues import UnboundedQueue
from repro.xwindows.buffer_thread import PaintRequest
from repro.xwindows.server import XServer
from repro.paradigms.slack import SlackProcess


@dataclass
class EchoResult:
    """What one echo-pipeline run produced."""

    strategy: str
    quantum: int
    keystrokes: int
    echo_latencies: list[int] = field(default_factory=list)
    flushes: int = 0
    mean_batch: float = 0.0
    merge_ratio: float = 0.0
    switches: int = 0
    server_busy: int = 0

    @property
    def mean_latency(self) -> float:
        if not self.echo_latencies:
            return 0.0
        return sum(self.echo_latencies) / len(self.echo_latencies)

    @property
    def max_latency(self) -> int:
        return max(self.echo_latencies, default=0)


def run_echo_pipeline(
    *,
    strategy: str,
    quantum: int = msec(50),
    switch_cost: int | None = None,
    keystrokes: int = 40,
    key_interval: int = msec(80),
    buffer_priority: int = 5,
    imaging_priority: int = 3,
    seed: int = 0,
) -> EchoResult:
    """Type ``keystrokes`` keys and measure how their echoes reach X.

    Each keystroke makes the imaging thread render a glyph: a burst of
    four overlapping paint requests (cursor region, glyph cell, status
    line...), which is the merging opportunity.
    """
    config_kwargs = dict(seed=seed, quantum=quantum)
    if switch_cost is not None:
        config_kwargs["switch_cost"] = switch_cost
    kernel = Kernel(KernelConfig(**config_kwargs))
    server = XServer()
    keyboard = kernel.channel("keyboard")
    cooked = UnboundedQueue("cooked-keys")
    paint_queue = UnboundedQueue("paint-requests")

    pressed: dict[int, int] = {}
    first_request: dict[int, int] = {}  # key id -> first enqueue time
    flush_times: list[int] = []

    def deliver(batch):
        yield from server.submit(batch)
        now = yield GET_TIME
        flush_times.append(now)

    slack = SlackProcess("buffer", paint_queue, deliver, strategy=strategy)

    def notifier():
        # The critical thread: notice the event, defer the real work.
        while True:
            key_id = yield Channelreceive(keyboard)
            yield Compute(usec(30))  # preprocess the event
            yield from cooked.put(key_id)

    def imaging():
        while True:
            key_id = yield from cooked.get()
            yield Compute(usec(300))  # render the glyph
            for region in range(4):
                if key_id not in first_request:
                    first_request[key_id] = yield GET_TIME
                yield from paint_queue.put(
                    PaintRequest(region=f"region-{region}")
                )
                # Real painting work separates the requests — the reason
                # a too-short donation window (1 ms quantum) cannot
                # gather a whole burst (Section 6.3).
                yield Compute(msec(2))

    kernel.fork_root(notifier, name="Notifier", priority=7, role="eternal")
    kernel.fork_root(imaging, name="imaging", priority=imaging_priority,
                     role="eternal")
    kernel.fork_root(slack.proc, name="buffer", priority=buffer_priority,
                     role="eternal")

    for i in range(keystrokes):
        at = (i + 1) * key_interval
        pressed[i] = at
        kernel.post_at(at, lambda k, i=i: keyboard.post(i))

    kernel.run_for((keystrokes + 20) * key_interval)

    result = EchoResult(
        strategy=strategy,
        quantum=quantum,
        keystrokes=keystrokes,
        flushes=server.flushes,
        mean_batch=server.mean_batch_size,
        merge_ratio=slack.merge_ratio,
        switches=kernel.stats.switches,
        server_busy=server.busy_time,
    )
    # A keystroke is echoed by the first flush at or after its first
    # paint request was enqueued (later same-region requests may have
    # merged over the actual pixels, but the glyph reached the screen).
    for key_id, press_time in pressed.items():
        if key_id not in first_request:
            continue
        enqueued = first_request[key_id]
        for flush_time in flush_times:
            if flush_time >= enqueued:
                result.echo_latencies.append(flush_time - press_time)
                break
    kernel.shutdown()
    return result
