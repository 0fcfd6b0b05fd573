"""Pumps (Section 4.2): pipeline components.

"Pumps are components of pipelines.  They pick up input from one place,
possibly transform it in some way and produce it as output someplace
else."  The paper found them "most commonly used ... as a programming
convenience" — structuring, not multiprocessor parallelism.

A :class:`Pump` connects a *source* to a *sink*.  Sources and sinks may be
bounded buffers, unbounded queues, or device channels — "bounded buffers
and external devices are two common sources and sinks" — plus anything
else exposing the small endpoint protocol below.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.kernel.channel import Channel
from repro.kernel.primitives import Channelreceive, Compute
from repro.kernel.simtime import usec


def read_endpoint(endpoint: Any):
    """Blocking-get from any supported pipeline endpoint (generator)."""
    if isinstance(endpoint, Channel):
        item = yield Channelreceive(endpoint)
        return item
    getter = getattr(endpoint, "get", None)
    if getter is not None:
        item = yield from getter()
        return item
    raise TypeError(f"cannot read from pipeline endpoint {endpoint!r}")


def write_endpoint(endpoint: Any, item: Any):
    """Blocking-put to any supported pipeline endpoint (generator)."""
    putter = getattr(endpoint, "put", None)
    if putter is not None:
        yield from putter(item)
        return
    raise TypeError(f"cannot write to pipeline endpoint {endpoint!r}")


class Pump:
    """One pipeline stage: get, transform, put — forever.

    ``transform`` maps an input item to an output item, a list of output
    items (fan-out), or ``None`` (drop).  ``cost_per_item`` is the CPU
    burned per item; pipelines in the echo path use tens of microseconds.
    """

    def __init__(
        self,
        name: str,
        source: Any,
        sink: Any,
        *,
        transform: Callable[[Any], Any] | None = None,
        cost_per_item: int = usec(50),
        carry: dict | None = None,
    ) -> None:
        self.name = name
        self.source = source
        self.sink = sink
        self.transform = transform
        #: The per-item burn, built once (None: the stage is free).
        self._compute = Compute(cost_per_item) if cost_per_item else None
        self.items_pumped = 0
        #: Optional custody ledger, keyed by ``item.rid``: records each
        #: item the instant it leaves the source, cleared once the sink
        #: holds it — so a pump killed mid-transfer leaves an audit
        #: trail instead of a silent loss.  None costs nothing.
        self.carry = carry

    def proc(self):
        """The pump's thread body."""
        while True:
            item = yield from read_endpoint(self.source)
            if self.carry is not None:
                self.carry[item.rid] = item
            if self._compute is not None:
                yield self._compute
            output = item if self.transform is None else self.transform(item)
            self.items_pumped += 1
            if output is None:
                if self.carry is not None:
                    self.carry.pop(item.rid, None)
                continue
            if isinstance(output, list):
                for produced in output:
                    yield from write_endpoint(self.sink, produced)
            else:
                yield from write_endpoint(self.sink, output)
            if self.carry is not None:
                self.carry.pop(item.rid, None)


def connect_pipeline(
    world: Any,
    stages: list[Pump],
    *,
    priority: int = 4,
) -> list[Any]:
    """Fork one thread per pump, in order; returns the thread handles.

    ``world`` is a :class:`repro.runtime.pcr.World` (or anything with
    ``add_eternal``); pipeline threads are eternal by nature.
    """
    return [
        world.add_eternal(stage.proc, name=stage.name, priority=priority)
        for stage in stages
    ]
