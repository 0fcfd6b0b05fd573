"""Primary/replica shards and the standby balancer: failover machinery.

The cluster's answer to "a shard wedged with acknowledged work inside"
is the same shape the paper gives every other problem — more threads,
each doing one simple job over kernel primitives:

* each primary shard streams an append-only **op log** to its replica
  over a kernel channel (:class:`ReplicationLink`).  Records are
  ``admit`` / ``dispatch`` / ``complete``, shipped with a fixed delay by
  a posted kernel event (the "network") and drained by an eternal
  **applier** thread on the replica side;
* the replica's applier folds the log into two dicts: ``acked`` (rids
  with a shipped terminal outcome) and ``pending`` (admitted or
  dispatched, terminal record not seen).  On promotion the balancer
  replays its own un-acked retransmit buffer against ``acked`` —
  idempotent by rid, so a completion whose record was in flight at the
  cut is never run twice *and* a dispatched-but-incomplete request is
  never lost;
* the balancer itself is protected by a :class:`BalancerLease` — a
  kernel-timer lease the primary balancer's health sleeper renews every
  probe tick.  A :class:`StandbyBalancer` watches the lease from its own
  sleeper; on expiry it seizes the lease, rebuilds routing state from
  the shards' own counters (the heartbeats every probe already reads),
  and forks a replacement thread population.

Everything here is deterministic: ship delays are fixed, appliers are
ordinary threads under the simulated scheduler, and a run with
``replicas=False`` constructs none of it — the pre-existing golden
schedules stay byte-identical.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.primitives import Channelreceive, Compute, Fork, GetTime
from repro.kernel.simtime import usec
from repro.server.model import PENDING, Request

#: One-way op-log latency (posted kernel event) and the CPU charged on
#: each side per record — small next to request service costs.
SHIP_DELAY = usec(200)
SHIP_COST = usec(5)
APPLY_COST = usec(5)

#: Applier threads sit with the other sleepers, below the front door.
PRIO_APPLIER = 5

#: Balancer lease: TTL in probe periods.  The primary renews every
#: health tick (one probe period = 2 quanta), so the standby needs
#: several consecutive missed renewals — not one slow tick — to fire.
LEASE_TTL_POLLS = 6


class OpRecord:
    """One op-log entry: what happened to which request."""

    __slots__ = ("kind", "rid", "status", "req")

    def __init__(self, kind: str, req: Request) -> None:
        self.kind = kind
        self.rid = req.rid
        self.status = req.status
        self.req = req

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OpRecord {self.kind} {self.rid} {self.status}>"


class ReplicationLink:
    """Ships a primary shard's op log to its replica over a channel."""

    def __init__(
        self, world: Any, primary: Any, replica: Any, sid: int
    ) -> None:
        self.world = world
        self.kernel = world.kernel
        self.primary = primary
        self.replica = replica
        self.sid = sid
        self.channel = world.add_device(f"{primary.name}.oplog")
        #: Primary-side log, append-only (ground truth for audits).
        self.log: list[OpRecord] = []
        self.shipped = 0
        self.applied = 0
        #: Replica-side replay state: rid -> terminal status once a
        #: ``complete`` record landed; rid -> request while only
        #: admit/dispatch records have.
        self.acked: dict[str, str] = {}
        self.pending: dict[str, Request] = {}
        #: Set by the balancer when it promotes the replica; a promoted
        #: link never promotes again (the old primary is retired).
        self.promoted = False

    def install(self) -> None:
        """Hook the primary's op-log feed and fork the applier."""
        self.primary.on_oplog = self._ship
        self.world.add_eternal(
            self._apply_proc,
            name=f"{self.primary.name}.oplog.apply",
            priority=PRIO_APPLIER,
        )

    def _ship(self, kind: str, req: Request):
        """Primary-side hook: append, post the record onto the wire."""
        rec = OpRecord(kind, req)
        self.log.append(rec)
        self.shipped += 1
        chan = self.channel
        self.kernel.post_at(
            self.kernel.now + SHIP_DELAY, lambda k, rec=rec: chan.post(rec)
        )
        yield Compute(SHIP_COST)

    def _apply_proc(self):
        """Replica-side applier: drain the wire, fold into acked/pending."""
        while True:
            rec = yield Channelreceive(self.channel)
            yield Compute(APPLY_COST)
            self.applied += 1
            if rec.kind == "complete":
                self.acked[rec.rid] = rec.status
                self.pending.pop(rec.rid, None)
            elif rec.rid not in self.acked:
                self.pending[rec.rid] = rec.req

    def is_acked(self, rid: str) -> bool:
        """Did the replica see a terminal record for this rid?"""
        return rid in self.acked


class BalancerLease:
    """A kernel-timer lease on the balancer role.

    Plain state — no thread of its own.  The primary balancer's health
    sleeper calls :meth:`renew` every probe tick; the standby's watch
    sleeper polls :meth:`expired` and calls :meth:`seize` exactly once.
    """

    def __init__(self, ttl: int, holder: str = "lb") -> None:
        if ttl <= 0:
            raise ValueError("lease ttl must be > 0")
        self.ttl = ttl
        self.holder = holder
        self.expires_at = ttl
        self.renewals = 0
        self.takeovers = 0

    def renew(self, now: int) -> None:
        self.expires_at = now + self.ttl
        self.renewals += 1

    def expired(self, now: int) -> bool:
        return now >= self.expires_at

    def seize(self, holder: str, now: int) -> None:
        self.holder = holder
        self.takeovers += 1
        self.expires_at = now + self.ttl

    def to_dict(self) -> dict:
        return {
            "holder": self.holder,
            "ttl": self.ttl,
            "renewals": self.renewals,
            "takeovers": self.takeovers,
        }


class StandbyBalancer:
    """Watches the balancer lease; takes over when it lapses.

    Takeover forks a *replacement* thread population over the same
    balancer object — queues, credit window, and counters survive (they
    are shard-side or shared state); only the routing caches that the
    dead threads owned (`_last_done`, strikes, clean windows) are
    rebuilt from the shards' own progress counters.
    """

    def __init__(
        self, world: Any, balancer: Any, lease: BalancerLease,
        name: str = "lb.standby",
    ) -> None:
        from repro.paradigms.sleeper import Sleeper

        self.world = world
        self.balancer = balancer
        self.lease = lease
        self.name = name
        self.active = False
        self.took_over_at: int | None = None
        #: Cluster-wide terminal outcomes at the instant of takeover —
        #: lets a post-check prove the cluster made progress *after*.
        self.completed_at_takeover = 0
        self.watch = Sleeper(
            f"{name}.watch", 2 * balancer.poll, self._watch,
            work_cost=usec(20),
        )
        self.thread: Any = None

    def start(self) -> None:
        self.thread = self.world.add_eternal(
            self.watch.proc, name=self.watch.name, priority=PRIO_APPLIER
        )

    def _watch(self):
        """One watch tick: seize the lease if the primary let it lapse."""
        if self.active:
            return
        now = yield GetTime()
        if not self.lease.expired(now):
            return
        b = self.balancer
        self.active = True
        self.took_over_at = now
        self.lease.seize(self.name, now)
        nshards = len(b.shards)
        self.completed_at_takeover = sum(
            b.shard_done(sid) for sid in range(nshards)
        )
        # Rebuild routing state from shard heartbeats: the progress
        # counters the dead health thread tracked are re-seeded from the
        # shards' own stats; health verdicts re-derive over the next
        # probe ticks.
        for sid in range(nshards):
            b._last_done[sid] = b.shard_done(sid)
            b._strikes[sid] = 0
            b._clean[sid] = 0
        # Requests a dead pipeline thread was carrying between queues
        # rejoin at the front — fresh deadline, no retry-budget charge
        # (the partition was the cluster's fault).  The lease lapsing
        # fences the old threads: only a dead (or terminally stalled)
        # pipeline lets the TTL run out, so re-injection cannot race a
        # live put of the same request.
        for ledger in b.carry_ledgers.values():
            for rid, req in list(ledger.items()):
                if req.status == PENDING:
                    ledger.pop(rid, None)
                    req.renew(now)
                    yield from b.ingress.put(req)
        yield Fork(
            b.listener.proc,
            name=f"{self.name}.listener", priority=6, detached=True,
        )
        yield Fork(
            b._admit_proc,
            name=f"{self.name}.admit", priority=6, detached=True,
        )
        yield Fork(
            b._dispatch_proc,
            name=f"{self.name}.dispatch", priority=6, detached=True,
        )
        yield Fork(
            b.health.proc,
            name=f"{self.name}.health", priority=5, detached=True,
        )

    def to_dict(self) -> dict:
        return {"active": self.active, "took_over_at": self.took_over_at}


# -- fault helpers ----------------------------------------------------------


def install_primary_kill(world: Any, balancer: Any, sid: int, at: int) -> None:
    """Post a kernel event that kills every thread of shard ``sid``'s
    *current* primary at time ``at`` (resolved at fire time, so a prior
    promotion redirects the blast to whoever holds the slot then)."""

    def strike(kernel):
        for thread in balancer.shards[sid].threads:
            if thread.alive:
                kernel._inject_kill(thread, note=False)

    world.kernel.post_at(at, strike)


def install_balancer_kill(world: Any, balancer: Any, at: int) -> None:
    """Post a kernel event that kills the balancer's own threads at
    ``at`` — the partition the standby's lease watch is for."""

    def strike(kernel):
        for thread in balancer.threads:
            if thread.alive:
                kernel._inject_kill(thread, note=False)

    world.kernel.post_at(at, strike)


# -- custody audit ----------------------------------------------------------


def _queue_items(queue: Any) -> list:
    """Best-effort view of the requests a queue object is holding."""
    items = getattr(queue, "items", None)
    if items is not None:
        return list(items)
    # WfqQueue: per-tenant deques of (finish_tag, seq, item) triples.
    queues = getattr(queue, "queues", None)
    if queues is not None:
        return [item for dq in queues.values() for (_, _, item) in dq]
    return []


def live_requests(balancer: Any) -> dict[str, Request]:
    """Every request some live cluster component still has custody of.

    Scans every live frontend — the balancer, the shards in its routing
    table and the un-promoted replicas — the same way: its queues, its
    ``held`` dict (workers, serializers, batcher, retry and reroute
    one-shots) and its carry ledgers; then each server's serial queues,
    batch queue and batcher merge list.  Retired primaries hold nothing:
    promotion must replay what they had, and counting their queues
    would hide a request it left behind.  Bookkeeping mirrors (the
    balancer's retransmit buffer, the replica's replay state) are
    excluded too — they are claims about custody, not custody, and
    counting them would mask real loss.
    """
    held: dict[str, Request] = {}

    def note(obj: Any) -> None:
        if isinstance(obj, Request):
            held.setdefault(obj.rid, obj)

    def scan_queue(queue: Any) -> None:
        for item in _queue_items(queue):
            note(item)

    servers = list(balancer.shards)
    for link in balancer.links or ():
        if not link.promoted:
            servers.append(link.replica)
    for frontend in [balancer, *servers]:
        scan_queue(frontend.net)
        scan_queue(frontend.ingress)
        scan_queue(frontend.admission)
        for req in frontend.held.values():
            note(req)
        for ledger in frontend.carry_ledgers.values():
            for req in ledger.values():
                note(req)
    for server in servers:
        for queue in server.serial_queues.values():
            scan_queue(queue)
        scan_queue(server.batch_queue)
        for req in server._superseded:
            note(req)
    return held


def lost_requests(balancer: Any, minted: list) -> list:
    """Minted requests that are still PENDING yet held by nobody —
    the "silently vanished" class the evacuation bug produced."""
    held = live_requests(balancer)
    return [
        req
        for req in minted
        if req.status == PENDING and req.rid not in held
    ]
