"""Traffic generators: open-loop arrival events, closed-loop client threads.

Open-loop tenants model the outside world: Poisson arrivals run as timed
kernel events (not threads) and post into the server's network channel,
exactly how devices inject work everywhere else in this simulation.  An
open-loop source does not slow down when the server is slow — that is
the property that makes the overload scenario an overload.

Closed-loop tenants are client *threads*: submit, wait for the reply,
think, repeat.  Their offered load self-limits with server latency, and
they own the retry-on-shed policy (jittered exponential backoff, bounded
attempts) because a shed verdict is advice to the caller, not the server.

Each tenant's arrival randomness is an independent stream forked from
the kernel seed, so changing one tenant's rate never perturbs another
tenant's arrival sequence.

**Coordinated omission.**  A closed-loop client that is stalled by the
server (shed, backing off, resubmitting) is *not sending* — naive
accounting measures each attempt from its own submission time and so
silently omits exactly the waits the server caused.  With
``TenantSpec.co_aware`` (the default) every resubmission carries the
original *intended* send time, so the recorded latency of the eventually
successful attempt covers the whole stall.  This is an accounting-only
change: the schedule of kernel events is identical either way, only the
timestamps folded into the histogram differ.

Both generators target any :class:`~repro.server.server.Frontend` —
a single server, a cluster balancer or a cache tier; the frontend
protocol they use is described there, once.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.primitives import GetTime, Pause
from repro.kernel.rng import DeterministicRng
from repro.kernel.simtime import msec
from repro.server.model import DONE, FAILED, SHED, TenantSpec
from repro.sync.queues import UnboundedQueue

#: How many shed verdicts a closed-loop client absorbs before giving up.
CLIENT_RETRY_BUDGET = 3


def install_open_loop(server: Any, tenant: TenantSpec) -> None:
    """Schedule the tenant's Poisson arrival process as kernel events."""
    if tenant.mode != "open":
        raise ValueError(f"tenant {tenant.name!r} is not open-loop")
    kernel = server.kernel
    rng = DeterministicRng(kernel.config.seed).fork(
        f"{server.name}:arrivals:{tenant.name}"
    )
    rate_per_usec = tenant.rate_per_sec / 1_000_000.0

    def arrive(k: Any) -> None:
        req = server.make_request(tenant, k.now)
        server.stats.bump(tenant.name, "offered")
        server.net.post(req)
        k.post_at(k.now + rng.expovariate(rate_per_usec), arrive)

    kernel.post_at(
        kernel.now + rng.expovariate(rate_per_usec), arrive
    )


def install_closed_loop(server: Any, tenant: TenantSpec) -> None:
    """Fork the tenant's client thread population."""
    if tenant.mode != "closed":
        raise ValueError(f"tenant {tenant.name!r} is not closed-loop")
    for cid in range(tenant.clients):
        rng = DeterministicRng(server.kernel.config.seed).fork(
            f"{server.name}:client:{tenant.name}:{cid}"
        )
        server.world.add_eternal(
            client_proc,
            (server, tenant, cid, rng),
            name=f"client.{tenant.name}.{cid}",
            priority=tenant.priority,
        )


def client_proc(
    server: Any,
    tenant: TenantSpec,
    cid: int,
    rng: DeterministicRng,
):
    """One closed-loop client: think, submit, await verdict, repeat."""
    reply_q = UnboundedQueue(
        f"client.{tenant.name}.{cid}.reply", get_timeout=server.poll
    )
    think_rate = 1.0 / max(1, tenant.think_time)
    # A reply should arrive within the full retry envelope; past that the
    # client stops waiting and moves on (a give-up, not a server fault).
    patience = tenant.deadline * (tenant.max_retries + 2) + msec(500)
    while True:
        yield Pause(rng.expovariate(think_rate))
        now = yield GetTime()
        req = server.make_request(tenant, now, reply_to=reply_q)
        #: The operation's intended send time.  CO-aware resubmits carry
        #: it forward so the stall the server caused stays on the books.
        intended = req.intended
        shed_count = 0
        while True:
            server.stats.bump(tenant.name, "offered")
            yield from server.ingress.put(req)
            verdict = yield from _await_reply(reply_q, req, patience)
            if verdict == SHED and shed_count < CLIENT_RETRY_BUDGET:
                shed_count += 1
                server.stats.bump(tenant.name, "client_retries")
                backoff = tenant.backoff * (2 ** shed_count)
                yield Pause(backoff + rng.randint(0, tenant.backoff))
                now = yield GetTime()
                req = server.make_request(
                    tenant,
                    now,
                    reply_to=reply_q,
                    intended=intended if tenant.co_aware else None,
                )
                continue
            if verdict is None or verdict == SHED:
                server.stats.bump(tenant.name, "give_ups")
            # DONE and FAILED are terminal: latency/failure was already
            # accounted server-side.
            break


def _await_reply(queue: UnboundedQueue, req: Any, patience: int):
    """Timed-get until this request's verdict arrives or patience runs
    out; stale verdicts for abandoned requests are discarded."""
    start = yield GetTime()
    while True:
        msg = yield from queue.get()
        if msg is not None:
            verdict, reply = msg
            if reply.rid == req.rid:
                return verdict
            continue  # a stale reply for a request we gave up on
        now = yield GetTime()
        if now - start >= patience:
            return None
