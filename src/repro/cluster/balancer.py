"""The cluster front door: admission, routing, and shard health.

The balancer is the same pipeline shape as the server it fronts — every
stage is one of the paper's paradigms, one layer up:

* a listener :class:`~repro.paradigms.pump.Pump` moves arrivals from the
  cluster's network channel into the balancer ingress queue;
* an **admission** thread applies per-tenant policy at the mouth of the
  cluster: a :class:`~repro.cluster.admission.TokenBucket` hard-caps any
  tenant with a configured rate limit, then the request enters either a
  shared drop-tail :class:`~repro.sync.queues.BoundedQueue` or a
  per-tenant :class:`~repro.cluster.admission.WfqQueue` (the policy
  under test);
* a **dispatcher** thread drains the admission queue and routes each
  request to a shard chosen by the configured policy — ``hash`` (static
  tenant affinity), ``rr`` (round robin), or ``p2c`` (power of two
  choices over outstanding work).  Dispatch is *credit gated*: a shard
  with a full window of outstanding requests is ineligible, so cluster
  backlog accumulates in the balancer's admission queue — where WFQ can
  see tenants — rather than in anonymous shard queues;
* a **health** :class:`~repro.paradigms.sleeper.Sleeper` probes each
  shard's completion counters.  A shard holding queued work while its
  counters sit still collects strikes; enough strikes trip the breaker:
  the shard is marked unhealthy, its queued requests are pruned and
  re-dispatched through the balancer via detached one-shot threads with
  jittered backoff (bounded by :data:`MAX_REROUTES` — a request is
  failed rather than bounced forever).  The breaker closes only when
  the shard's counters *advance*, never on depth alone, so a wedged
  shard that merely drained does not win traffic back.

The balancer is a :class:`~repro.server.server.Frontend`, like the
server it fronts, so the traffic generators drive a cluster and a single
server interchangeably, and its verdicts, expiries and retries are the
base's.
"""

from __future__ import annotations

from typing import Any
from zlib import crc32

from repro.kernel.primitives import (
    GET_TIME,
    Compute,
    Fork,
    Notify,
    Pause,
    Wait,
)
from repro.kernel.rng import DeterministicRng
from repro.kernel.simtime import msec, usec
from repro.paradigms.pump import Pump
from repro.paradigms.sleeper import Sleeper
from repro.server.model import FAILED, PENDING, SHED, Request, TenantSpec
from repro.server.server import PRIO_SLEEPER, Frontend, RpcServer
from repro.cluster.admission import TokenBucket, WfqQueue
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor
from repro.sync.queues import BoundedQueue, UnboundedQueue

#: Balancer bookkeeping costs — small next to request service costs.
ADMIT_COST = usec(15)
DISPATCH_COST = usec(20)
#: The fixed-cost traps every request yields, built once.
ADMIT_COMPUTE = Compute(ADMIT_COST)
DISPATCH_COMPUTE = Compute(DISPATCH_COST)

#: Outstanding-request credit per shard worker: the dispatcher keeps at
#: most ``window = CREDITS_PER_WORKER * workers`` requests in flight per
#: shard — enough to keep every worker fed through a dispatch round
#: trip, small enough that backlog pools at the balancer (where the
#: admission policy can see tenants) instead of in anonymous shard
#: queues.
CREDITS_PER_WORKER = 4

#: Health probe: consecutive no-progress-while-loaded observations
#: before the breaker trips, and the backoff envelope for re-dispatch.
PROBE_STRIKES = 2
MAX_REROUTES = 2
REROUTE_BACKOFF = msec(20)

#: Consecutive progress observations a tripped shard must string
#: together before the breaker closes.  One completion is not health: a
#: wedged shard draining a single slow request used to flap healthy,
#: re-attract a window of traffic, and strand it all over again.
RECOVERY_CLEAN_TICKS = 3

#: Same priority bands as the server: ingress above the pool, the
#: sleeper (PRIO_SLEEPER) in between, everything >= 4 for the
#: starvation monitor.
PRIO_FRONT = 6

BALANCER_POLICIES = ("hash", "rr", "p2c")
ADMISSION_POLICIES = ("drop_tail", "wfq")


class LoadBalancer(Frontend):
    """Route requests across ``shards`` with pluggable pick policy and
    per-tenant admission (see module docstring)."""

    def __init__(
        self,
        world: Any,
        shards: tuple[RpcServer, ...],
        tenants: tuple[TenantSpec, ...],
        *,
        policy: str = "p2c",
        admission_policy: str = "wfq",
        admission_capacity: int = 64,
        name: str = "lb",
        links: tuple | None = None,
        lease: Any = None,
    ) -> None:
        if not shards:
            raise ValueError("need at least one shard")
        if policy not in BALANCER_POLICIES:
            raise ValueError(f"unknown balancer policy {policy!r}")
        if admission_policy not in ADMISSION_POLICIES:
            raise ValueError(f"unknown admission policy {admission_policy!r}")
        if links is not None and len(links) != len(shards):
            raise ValueError("need one replication link per shard")
        super().__init__(world, tenants, name)
        #: Mutable on purpose: promotion swaps a slot's server in place.
        self.shards = list(shards)
        #: Per-shard replication links (None without ``--replicas``) and
        #: the balancer-role lease the health sleeper renews.
        self.links = links
        self.lease = lease
        self.standby: Any = None
        self.policy = policy
        self.admission_policy = admission_policy

        #: Per-stage custody ledgers: each records the request a pipeline
        #: thread is holding between its get and its put (the listener
        #: between channel and ingress, the admit thread between ingress
        #: and admission, the dispatcher between admission and a shard).
        #: One ledger per stage — a shared dict would let one stage's
        #: cleanup erase another's entry for the same rid.  Transient in
        #: normal operation; after a balancer partition they hold exactly
        #: what the dead threads took down, which the standby re-injects
        #: at takeover.
        self.carry_ledgers: dict[str, dict[str, Request]] = {
            "net": {},
            "ingress": {},
            "admission": {},
        }
        self.net = world.add_device(f"{name}.net")
        self.ingress = UnboundedQueue(
            f"{name}.ingress", carry=self.carry_ledgers["ingress"]
        )
        if admission_policy == "wfq":
            self.admission: Any = WfqQueue(
                f"{name}.admission",
                max(1, admission_capacity // max(1, len(tenants))),
                {t.name: t.weight for t in tenants},
                carry=self.carry_ledgers["admission"],
            )
        else:
            self.admission = BoundedQueue(
                f"{name}.admission", admission_capacity,
                carry=self.carry_ledgers["admission"],
            )
        #: Per-tenant token buckets; only tenants with a configured rate
        #: limit get one (0 disables).
        self.buckets: dict[str, TokenBucket] = {
            t.name: TokenBucket(t.rate_limit_per_sec, t.burst)
            for t in tenants
            if t.rate_limit_per_sec > 0
        }

        self.pick_rng = DeterministicRng(self.kernel.config.seed).fork(
            f"{name}:pick"
        )

        nshards = len(shards)
        #: Credit window per shard (see CREDITS_PER_WORKER).
        self.window = max(
            CREDITS_PER_WORKER, CREDITS_PER_WORKER * shards[0].workers
        )
        self.healthy = [True] * nshards
        #: Requests handed to each shard since boot (never decremented;
        #: inflight is derived against the shard's outcome counters).
        self.dispatched = [0] * nshards
        #: Requests pruned back out of a tripped shard's queues.
        self.rerouted_away = [0] * nshards
        #: Per-shard retransmit buffer: every dispatched request, keyed
        #: by rid, until the shard's outcome hook releases it.  On
        #: promotion this is the authoritative replay set, cross-checked
        #: against the replica's acked log.
        self.outstanding: list[dict[str, Request]] = [
            {} for _ in range(nshards)
        ]
        self._strikes = [0] * nshards
        self._clean = [0] * nshards
        self._last_done = [0] * nshards
        self._rr = 0
        #: Breaker events, for reports and the chaos invariants.
        self.trips = 0
        self.recoveries = 0
        self.reroutes = 0
        #: Dispatched requests a tripped shard took down with it — work
        #: the cluster acknowledged and then lost.  Replication exists
        #: to hold this at zero; without a replica it is the observable
        #: cost of the old silent-drop evacuation.
        self.lost_inflight = [0] * nshards
        #: Replication events: replica promotions, un-acked requests
        #: re-executed on promotion, and un-acked requests terminally
        #: failed because no replica remained to replay them into.
        self.promotions = 0
        self.replayed = 0
        self.quarantined = 0
        self.promoted_at: list[int] = []
        #: Demoted primaries, kept so merged cluster stats stay
        #: conservation-complete after a promotion.  They hold nothing:
        #: the custody audit skips them (promotion must replay, not
        #: leave work behind in a dead primary's queues).
        self.retired: list[RpcServer] = []

        #: Credit wakeup: every shard terminal outcome (complete, shed,
        #: fail) notifies here, so the dispatcher blocks *on an event*
        #: when every shard is at its window — timed waits alone would
        #: quantize dispatch to scheduler ticks (timeouts have timeslice
        #: granularity) and cap throughput at one window per quantum.
        self.credit_mon = Monitor(f"{name}.credit")
        self.credit_cv = ConditionVariable(self.credit_mon, f"{name}.credit.cv")
        self._notify_credit = Notify(self.credit_cv)
        for sid, shard in enumerate(self.shards):
            shard.on_outcome = self._make_credit_hook(sid)
        for link in links or ():
            # Replicas release the same slot's credit once promoted.
            link.replica.on_outcome = self._make_credit_hook(link.sid)

        self.listener = Pump(
            f"{name}.listener",
            self.net,
            self.ingress,
            cost_per_item=usec(10),
            carry=self.carry_ledgers["net"],
        )
        self.health = Sleeper(
            f"{name}.health", 2 * self.poll, self._probe, work_cost=usec(30)
        )

    # -- population --------------------------------------------------------

    def start(self) -> None:
        """Fork the balancer's thread population (shards start themselves)."""
        add = self.threads.append
        add(self.world.add_eternal(
            self.listener.proc, name=self.listener.name, priority=PRIO_FRONT
        ))
        add(self.world.add_eternal(
            self._admit_proc, name=f"{self.name}.admit", priority=PRIO_FRONT
        ))
        add(self.world.add_eternal(
            self._dispatch_proc,
            name=f"{self.name}.dispatch",
            priority=PRIO_FRONT,
        ))
        add(self.world.add_eternal(
            self.health.proc, name=self.health.name, priority=PRIO_SLEEPER
        ))

    # -- shard accounting ---------------------------------------------------

    def shard_done(self, sid: int) -> int:
        """Terminal outcomes a shard has produced (its progress counter)."""
        stats = self.shards[sid].stats
        return (
            stats.total("completed")
            + stats.total("shed")
            + stats.total("failed")
        )

    def inflight(self, sid: int) -> int:
        """Requests dispatched to a shard and not yet resolved there."""
        return max(
            0,
            self.dispatched[sid]
            - self.shard_done(sid)
            - self.rerouted_away[sid],
        )

    def shard_depth(self, sid: int) -> int:
        """Queued (not yet executing) requests held by a shard."""
        shard = self.shards[sid]
        depth = len(shard.ingress) + len(shard.admission)
        for queue in shard.serial_queues.values():
            depth += len(queue)
        return depth

    # -- thread bodies -----------------------------------------------------

    def _admit_proc(self):
        """Token-bucket gate, then the admission queue (or shed)."""
        while True:
            req = yield from self.ingress.get(timeout=self.poll)
            if req is None:
                continue
            yield ADMIT_COMPUTE
            tenant = req.tenant
            bucket = self.buckets.get(tenant.name)
            if bucket is not None:
                now = yield GET_TIME
                if not bucket.take(now):
                    yield from self._finish(req, SHED)
                    continue
            ok = yield from self.admission.try_put(req)
            if ok:
                self.carry_ledgers["ingress"].pop(req.rid, None)
            else:
                yield from self._finish(req, SHED)

    def _dispatch_proc(self):
        """Drain admission in policy order; route to an eligible shard."""
        while True:
            req = yield from self.admission.get(timeout=self.poll)
            if req is None:
                continue
            yield DISPATCH_COMPUTE
            while True:
                sid = self._pick_shard(req)
                if sid is not None:
                    break
                # Every shard tripped or at its window: hold the request
                # until an outcome hook signals a freed credit.  The
                # timeout is a backstop (health recovery does not signal
                # this CV), not the cadence.
                yield self.credit_mon.enter
                try:
                    yield Wait(self.credit_cv, self.poll)
                finally:
                    yield self.credit_mon.exit
            self.dispatched[sid] += 1
            self.outstanding[sid][req.rid] = req
            yield from self.shards[sid].ingress.put(req)
            self.carry_ledgers["admission"].pop(req.rid, None)

    def _make_credit_hook(self, sid: int):
        """Build a shard's ``on_outcome``: release the retransmit-buffer
        slot, wake the dispatcher (a credit just freed)."""

        def hook(req: Request):
            self.outstanding[sid].pop(req.rid, None)
            yield self.credit_mon.enter
            try:
                yield self._notify_credit
            finally:
                yield self.credit_mon.exit

        return hook

    def _pick_shard(self, req: Request) -> int | None:
        eligible = [
            sid
            for sid in range(len(self.shards))
            if self.healthy[sid] and self.inflight(sid) < self.window
        ]
        if not eligible:
            return None
        if self.policy == "hash":
            start = crc32(req.tenant.name.encode()) % len(self.shards)
            for offset in range(len(self.shards)):
                sid = (start + offset) % len(self.shards)
                if sid in eligible:
                    return sid
            return None  # pragma: no cover - eligible is non-empty
        if self.policy == "rr":
            for _ in range(len(self.shards)):
                sid = self._rr % len(self.shards)
                self._rr += 1
                if sid in eligible:
                    return sid
            return None  # pragma: no cover - eligible is non-empty
        # p2c: probe two (deterministic) picks, take the shorter queue.
        first = eligible[self.pick_rng.randint(0, len(eligible) - 1)]
        second = eligible[self.pick_rng.randint(0, len(eligible) - 1)]
        return first if self.inflight(first) <= self.inflight(second) else second

    # -- the health sleeper -------------------------------------------------

    def _probe(self):
        """Per-tick probe: strike wedged shards, trip, reroute, recover.

        Also sweeps the balancer's own admission queue for requests that
        expired while waiting for credit (mirroring the shard deadline
        sleeper), so cluster-level queueing honours the same deadlines.
        """
        now = yield GET_TIME
        if self.lease is not None:
            self.lease.renew(now)
        self.stats.depth_samples.append(
            (now, len(self.admission), self.stats.total("shed"))
        )
        for sid in range(len(self.shards)):
            done = self.shard_done(sid)
            if done > self._last_done[sid]:
                self._last_done[sid] = done
                self._strikes[sid] = 0
                if not self.healthy[sid]:
                    # Progress is the only way back in — but one
                    # completion is not progress, it's a drip.  The
                    # breaker closes only after a clean-strike window of
                    # consecutive advancing ticks.
                    self._clean[sid] += 1
                    if self._clean[sid] >= RECOVERY_CLEAN_TICKS:
                        self.healthy[sid] = True
                        self.recoveries += 1
                        self._clean[sid] = 0
                continue
            if not self.healthy[sid]:
                self._clean[sid] = 0  # stalled again: the window restarts
                continue
            if self.shard_depth(sid) == 0 and self.inflight(sid) == 0:
                self._strikes[sid] = 0  # idle, not wedged
                continue
            self._strikes[sid] += 1
            if self._strikes[sid] >= PROBE_STRIKES:
                self.healthy[sid] = False
                self._clean[sid] = 0
                self.trips += 1
                link = self.links[sid] if self.links is not None else None
                if link is not None and not link.promoted:
                    yield from self._promote(sid)
                else:
                    yield from self._evacuate(sid)

        def cut(r):
            return r.expires_at <= now and r.status == PENDING

        expired = yield from self.admission.prune(cut)
        for req in expired:
            yield from self._expire(req)

    def _promote(self, sid: int):
        """Fail over a tripped primary to its replica.

        The replica takes the slot; un-acked outstanding requests — sent
        to the primary, no terminal record shipped back — are replayed
        into it, idempotent by rid (anything the replica's log already
        acked is skipped, so a completion whose record was in flight at
        the cut never runs twice).  The demoted primary is retired but
        keeps its stats, so merged cluster counters stay whole.
        """
        link = self.links[sid]
        link.promoted = True
        old = self.shards[sid]
        old.on_oplog = None  # fence: the demoted primary stops shipping
        self.retired.append(old)
        self.shards[sid] = link.replica
        now = yield GET_TIME
        self.promotions += 1
        self.promoted_at.append(now)
        replay = [
            req
            for req in self.outstanding[sid].values()
            if not link.is_acked(req.rid) and req.status == PENDING
        ]
        # Reset the slot's ledgers to the replica's ground state; the
        # replay below re-enters each request through normal dispatch
        # accounting.
        self.outstanding[sid] = {}
        self.dispatched[sid] = 0
        self.rerouted_away[sid] = 0
        self._last_done[sid] = self.shard_done(sid)
        self._strikes[sid] = 0
        self._clean[sid] = 0
        self.healthy[sid] = True
        for req in replay:
            req.renew(now)
            req.replays += 1
            self.replayed += 1
            self.dispatched[sid] += 1
            self.outstanding[sid][req.rid] = req
            yield from self.shards[sid].ingress.put(req)

    def _evacuate(self, sid: int):
        """Pull queued work off a tripped shard and re-dispatch it.

        Only *queued* (PENDING, still in a scannable queue) requests can
        be pruned back out.  What remains charged to the slot afterwards
        was in a worker's or the batcher's hands when the shard wedged:
        with a replica that work fails over via :meth:`_promote`; with
        none it is either quarantined (failed loudly, replicated mode)
        or — the original bug — silently lost, now at least counted in
        ``lost_inflight``.
        """
        shard = self.shards[sid]

        def queued(r):
            return r.status == PENDING

        moved = yield from shard.ingress.prune(queued)
        moved += yield from shard.admission.prune(queued)
        for queue in shard.serial_queues.values():
            moved += yield from queue.prune(queued)
        moved += yield from shard.batch_queue.prune(queued)
        for req in moved:
            self.outstanding[sid].pop(req.rid, None)
            self.rerouted_away[sid] += 1
            req.reroutes += 1
            if req.reroutes > MAX_REROUTES:
                yield from self._finish(req, FAILED)
                continue
            self.reroutes += 1
            # "rerouted", not "retries": a reroute is the cluster's doing
            # and must not be conflated with the tenant's retry spend.
            self.stats.bump(req.tenant.name, "rerouted")
            delay = REROUTE_BACKOFF * req.reroutes
            delay += self.retry_rng.randint(0, REROUTE_BACKOFF)
            self.held[req.rid] = req
            yield Fork(
                self._reroute_proc,
                (req, delay),
                name=f"{self.name}.reroute.{req.rid}.{req.reroutes}",
                priority=PRIO_SLEEPER,
                detached=True,
            )
        if self.links is not None:
            # Replicated cluster, but this slot has no replica left to
            # promote: quarantine the stranded work instead of dropping
            # it — the client hears FAILED, nothing vanishes.
            stranded = [
                req
                for req in self.outstanding[sid].values()
                if req.status == PENDING
            ]
            for req in stranded:
                self.outstanding[sid].pop(req.rid, None)
                self.rerouted_away[sid] += 1  # release the slot's credit
                self.quarantined += 1
                yield from self._finish(req, FAILED)
        else:
            self.lost_inflight[sid] += self.inflight(sid)

    def _reroute_proc(self, req: Request, delay: int):
        """One-shot: back off, renew the deadline, rejoin at the front.

        ``renew``, not ``rearm``: a reroute is the cluster's fault, so it
        must not charge the tenant's retry budget (rearm's ``attempt``
        bump used to let ``_expire`` fail a twice-rerouted request that
        had never actually timed out).
        """
        yield Pause(delay)
        now = yield GET_TIME
        req.renew(now)
        yield from self.ingress.put(req)
        self.held.pop(req.rid, None)
