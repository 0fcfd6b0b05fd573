"""The simulated X server.

What the paper's analysis needs from the server is its *cost structure*,
not its rendering: "Slack processes are useful when the downstream
consumer of the data incurs high per-transaction costs."  Talking to the X
server costs

* a large per-flush overhead (writing the socket, the Unix process switch
  to the server and back) — charged to the submitting client thread as
  CPU, because on the paper's uniprocessor the server steals the client's
  processor; and
* a smaller per-request processing cost.

So ``k`` requests sent in one flush cost ``flush_overhead + k *
per_request``, while sent one-by-one they cost ``k * (flush_overhead +
per_request)`` — the batching economics the buffer thread exists to win.

The server also produces input events (keystroke echoes, exposures) on its
connection channel; client libraries read them per §5.6.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.kernel.primitives import Compute
from repro.kernel.simtime import usec

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.channel import Channel


class QueryRequest:
    """A round-trip request: the server answers it with a reply event.

    The existence of queries is why "the X specification requires that
    the output queue be flushed whenever a read is done on the input
    stream" — a query sitting unflushed while its issuer blocks reading
    the reply would hang the client forever (§5.6).
    """

    __slots__ = ("name", "token")

    def __init__(self, name: str, token: Any = None) -> None:
        self.name = name
        self.token = token

    def __repr__(self) -> str:
        return f"<Query {self.name!r} token={self.token!r}>"


class XServer:
    """An X server as seen from a client thread."""

    def __init__(
        self,
        name: str = "Xserver",
        *,
        flush_overhead: int = usec(400),
        per_request: int = usec(40),
        events: "Channel | None" = None,
    ) -> None:
        self.name = name
        self.flush_overhead = flush_overhead
        self.per_request = per_request
        #: Connection channel carrying server->client events.
        self.events = events
        self.flushes = 0
        self.requests_received = 0
        self.replies_sent = 0
        self.busy_time = 0
        #: (time-ordered) sizes of each delivered batch, for merge audits.
        self.batch_sizes: list[int] = []

    def submit(self, requests: list[Any]):
        """Deliver a batch of requests over the connection (generator).

        Called from a client thread: ``yield from server.submit(batch)``.
        Charges the full transaction cost to the caller.  Any
        :class:`QueryRequest` in the batch produces a reply event on the
        connection.
        """
        cost = self.flush_overhead + len(requests) * self.per_request
        yield Compute(cost)
        self.flushes += 1
        self.requests_received += len(requests)
        self.busy_time += cost
        self.batch_sizes.append(len(requests))
        for request in requests:
            if isinstance(request, QueryRequest) and self.events is not None:
                self.replies_sent += 1
                self.events.post(("reply", request.name, request.token))

    def deliver_event(self, event: Any) -> None:
        """Server-side: push an input event to the client connection.

        Host/event-context call (e.g. from a workload's ``post_at``).
        """
        if self.events is None:
            raise ValueError("server has no event connection attached")
        self.events.post(event)

    @property
    def mean_batch_size(self) -> float:
        if not self.batch_sizes:
            return 0.0
        return sum(self.batch_sizes) / len(self.batch_sizes)

    def __repr__(self) -> str:
        return (
            f"<XServer flushes={self.flushes} requests={self.requests_received} "
            f"mean_batch={self.mean_batch_size:.2f}>"
        )
