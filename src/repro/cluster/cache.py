"""The cache tier: a cache process in front of the cluster front door.

:class:`CacheTier` is a :class:`~repro.server.server.Frontend`, like the
server and the cluster balancer, so every traffic generator — the
closed-loop client threads, the open-loop Poisson events, the workload
compiler's aggregate pumps — drives it unchanged.  Internally it is the
paper's paradigms once more: a listener pump drains the device channel,
a small worker pool probes the entry map, a fill pump completes parked
waiters, an invalidation pump drains a device channel of invalidation
messages, and a TTL sleeper sweeps stale entries.

**Hit/miss service-time split.**  A hit pays ``HIT_COST`` and completes
at the cache; a miss mints a *separate* backend fetch request (its own
rid, the tenant's full cost envelope) and parks the original.  Custody
stays clean: originals terminate at the cache, fetches terminate at the
backend, and the two layers' statistics never double count.

**Single flight.**  With the guard on, at most one fetch per key is in
flight; concurrent misses on that key park on the same fetch and all
complete from its fill ("request coalescing").  With it *off*, every
miss fetches — under a hot-key TTL expiry or a mass invalidation the
duplicate fetches saturate the backend, fills slow down, the miss
window widens, and the feedback loop is a reproducible, explorable
cache stampede (the metastable failure the chaos scenario pins).

Waiters are completed whenever the fill lands, even past their
deadline: the cache does not silently drop slow waiters, so the p99 a
stampede causes appears in the recorded histogram instead of vanishing
into coordinated omission.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.primitives import GET_TIME, Channelreceive, Compute, Pause
from repro.kernel.rng import DeterministicRng
from repro.kernel.simtime import usec
from repro.server.model import DONE, Request, TenantSpec
from repro.server.server import LISTEN_COST, Frontend
from repro.sync.queues import UnboundedQueue

#: Map probe paid by every request through the cache.
LOOKUP_COST = usec(20)
#: Serving a hit from memory (the fast path the tier exists for).
HIT_COST = usec(40)
#: Installing a fill and fanning out to waiters (base; waiter completion
#: accounting itself is costed per waiter).
FILL_COST = usec(30)
#: Accounting cost per completed waiter.
WAITER_COST = usec(10)
#: Processing one invalidation message.
INVALIDATE_COST = usec(10)
#: The fixed-cost traps, built once (traps are immutable).
LOOKUP_COMPUTE = Compute(LOOKUP_COST)
HIT_COMPUTE = Compute(HIT_COST)
FILL_COMPUTE = Compute(FILL_COST)
WAITER_COMPUTE = Compute(WAITER_COST)
INVALIDATE_COMPUTE = Compute(INVALIDATE_COST)
LISTEN_COMPUTE = Compute(LISTEN_COST)

#: Wildcard invalidation message: drop every entry.
INVALIDATE_ALL = "*"

PRIO_LISTENER = 6
PRIO_WORKER = 4
PRIO_PUMP = 5

#: Cache worker threads: lookups, hits and fetch minting.
WORKERS = 2


class CacheTier(Frontend):
    """A read cache fronting any backend frontend (a single
    :class:`RpcServer` or a cluster balancer)."""

    def __init__(
        self,
        world: Any,
        backend: Any,
        tenants: tuple[TenantSpec, ...],
        *,
        name: str = "cache",
        single_flight: bool = True,
        capacity: "int | None" = None,
    ) -> None:
        super().__init__(world, tenants, name)
        self.backend = backend
        self.single_flight = single_flight
        self.key_rng = DeterministicRng(self.kernel.config.seed).fork(
            f"{name}:keys"
        )
        self.net = world.add_device(f"{name}.net")
        #: Channel-driven invalidation: external events post keys (or
        #: :data:`INVALIDATE_ALL`) here; the invalidation pump applies
        #: them — writes elsewhere in the system stay decoupled from
        #: the cache's thread world, like every other device.
        self.invalidations = world.add_device(f"{name}.invalidate")
        self.ingress = UnboundedQueue(
            f"{name}.ingress", get_timeout=self.poll
        )
        #: Backend fetch verdicts land here ((verdict, fetch) pairs).
        self.fill_q = UnboundedQueue(f"{name}.fill", get_timeout=self.poll)
        #: key -> absolute expiry time of the cached entry, in LRU order
        #: (oldest first): hits reinsert, fills append, and a fill into a
        #: full cache evicts the front.  ``capacity=None`` means
        #: unbounded (TTL and invalidation are then the only eviction).
        self.capacity = capacity
        self.entries: dict[str, int] = {}
        #: key -> in-flight fetch rid (single-flight guard state).
        self.inflight: dict[str, str] = {}
        #: fetch rid -> original requests parked on that fetch.
        self.waiters: dict[str, list[Request]] = {}
        #: key -> live fetch count; its high-water mark is the
        #: single-flight invariant witness (== 1 with the guard on).
        self.inflight_by_key: dict[str, int] = {}
        self.max_inflight_per_key = 0
        #: Fetches minted while no fetch for that key was in flight —
        #: the number of distinct miss windows.  One fetch per window is
        #: the coalescing ideal; ``fetches / fetch_windows`` is the
        #: backend amplification factor.
        self.fetch_windows = 0
        # Cache-specific counters (the frontend ServerStats carries the
        # per-tenant request outcomes; these count cache mechanics).
        self.hits = 0
        self.misses = 0
        self.coalesced_waits = 0
        self.fetches = 0
        self.fills = 0
        self.failed_fills = 0
        #: Fills that landed after their own TTL had already passed
        #: (dead on arrival — served to waiters but not cached).
        self.stale_fills = 0
        self.expired_entries = 0
        self.invalidated = 0
        self.passthrough = 0
        #: Entries pushed out by a fill landing in a full cache.
        self.evictions = 0

    # -- construction -------------------------------------------------------

    def start(self) -> None:
        add = self.threads.append
        add(self.world.add_eternal(
            self._listener_proc, (), name=f"{self.name}.listener",
            priority=PRIO_LISTENER,
        ))
        for wid in range(WORKERS):
            add(self.world.add_eternal(
                self._worker_proc, (wid,), name=f"{self.name}.worker.{wid}",
                priority=PRIO_WORKER,
            ))
        add(self.world.add_eternal(
            self._fill_proc, (), name=f"{self.name}.fill",
            priority=PRIO_PUMP,
        ))
        add(self.world.add_eternal(
            self._invalidation_proc, (), name=f"{self.name}.invalidation",
            priority=PRIO_PUMP,
        ))
        add(self.world.add_eternal(
            self._ttl_sweep_proc, (), name=f"{self.name}.ttl",
            priority=PRIO_PUMP,
        ))

    # -- request minting ------------------------------------------------------

    def make_request(
        self,
        tenant: TenantSpec,
        now: int,
        *,
        reply_to: object = None,
        intended: int | None = None,
    ) -> Request:
        """Mint a request; cached tenants' reads draw a cache key from
        a hot-skewed distribution (key 0 is the hot key)."""
        req = self.factory.make(
            tenant, now, reply_to=reply_to, intended=intended
        )
        if tenant.cached and req.key is None:
            req.key = self._draw_key(tenant)
        return req

    def _draw_key(self, tenant: TenantSpec) -> str:
        span = max(1, tenant.cache_keys)
        if tenant.cache_hot_frac > 0.0 and self.key_rng.chance(
            tenant.cache_hot_frac
        ):
            index = 0
        else:
            index = self.key_rng.randint(0, span - 1)
        return f"{tenant.name}:c{index}"

    # -- threads -------------------------------------------------------------

    def _listener_proc(self):
        """Channel -> ingress.  Hand-written rather than a Pump: a Pump's
        untimed receive would change the schedule."""
        receive = Channelreceive(self.net, timeout=self.poll)
        while True:
            req = yield receive
            if req is None:
                continue
            yield LISTEN_COMPUTE
            yield from self.ingress.put(req)

    def _worker_proc(self, wid: int):
        while True:
            req = yield from self.ingress.get()
            if req is None:
                continue
            yield LOOKUP_COMPUTE
            tenant = req.tenant
            if not tenant.cached or req.key is None:
                # Not a cacheable read: hand straight to the backend,
                # which owns the verdict end to end.
                self.passthrough += 1
                self.backend.stats.bump(tenant.name, "offered")
                yield from self.backend.ingress.put(req)
                continue
            now = yield GET_TIME
            expiry = self.entries.get(req.key)
            if expiry is not None and now < expiry:
                self.hits += 1
                if self.capacity is not None:
                    # LRU touch: reinsert at the back of the dict order.
                    self.entries[req.key] = self.entries.pop(req.key)
                yield HIT_COMPUTE
                yield from self._finish(req, DONE)
                continue
            if expiry is not None:
                del self.entries[req.key]
                self.expired_entries += 1
            self.misses += 1
            if self.single_flight and req.key in self.inflight:
                self.waiters[self.inflight[req.key]].append(req)
                self.coalesced_waits += 1
                self.stats.bump(tenant.name, "coalesced")
                continue
            yield from self._fetch(req, now)

    def _fetch(self, req: Request, now: int):
        """Mint a backend fetch for ``req.key`` and park ``req`` on it."""
        tenant = req.tenant
        fetch = self.factory.make(tenant, now, reply_to=self.fill_q)
        fetch.key = req.key
        self.fetches += 1
        self.waiters[fetch.rid] = [req]
        if self.single_flight:
            self.inflight[req.key] = fetch.rid
        depth = self.inflight_by_key.get(req.key, 0) + 1
        self.inflight_by_key[req.key] = depth
        if depth == 1:
            self.fetch_windows += 1
        if depth > self.max_inflight_per_key:
            self.max_inflight_per_key = depth
        self.backend.stats.bump(tenant.name, "offered")
        yield from self.backend.ingress.put(fetch)

    def _fill_proc(self):
        while True:
            msg = yield from self.fill_q.get()
            if msg is None:
                continue
            verdict, fetch = msg
            yield FILL_COMPUTE
            key = fetch.key
            parked = self.waiters.pop(fetch.rid, [])
            if self.single_flight and self.inflight.get(key) == fetch.rid:
                del self.inflight[key]
            depth = self.inflight_by_key.get(key, 0)
            if depth <= 1:
                self.inflight_by_key.pop(key, None)
            else:
                self.inflight_by_key[key] = depth - 1
            if verdict == DONE:
                self.fills += 1
                now = yield GET_TIME
                # Freshness dates from when the fetch was *initiated*,
                # not when the fill landed: the backend read the value
                # then.  A fill that took longer than the TTL is dead on
                # arrival — its waiters are served (stale-but-served)
                # but nothing is cached, which is precisely what makes
                # an un-guarded stampede metastable: slow fills stop
                # restocking the cache, so the misses never stop.
                expiry = fetch.intended + fetch.tenant.cache_ttl
                if expiry > now:
                    if self.capacity is not None:
                        # A fill is a use: refreshes move to the back,
                        # and a fill into a full cache evicts the LRU
                        # entry (the dict front).
                        self.entries.pop(key, None)
                        if len(self.entries) >= self.capacity:
                            evicted = next(iter(self.entries))
                            del self.entries[evicted]
                            self.evictions += 1
                    self.entries[key] = expiry
                else:
                    self.stale_fills += 1
                for waiter in parked:
                    yield WAITER_COMPUTE
                    yield from self._finish(waiter, DONE)
            else:
                # The fetch was shed or failed by the backend: every
                # parked waiter inherits the verdict (and a resubmit
                # sink may storm them right back — that is the point).
                self.failed_fills += 1
                for waiter in parked:
                    yield WAITER_COMPUTE
                    yield from self._finish(waiter, verdict)

    def _invalidation_proc(self):
        while True:
            key = yield Channelreceive(self.invalidations, timeout=self.poll)
            if key is None:
                continue
            yield INVALIDATE_COMPUTE
            if key == INVALIDATE_ALL:
                self.invalidated += len(self.entries)
                self.entries.clear()
            elif key in self.entries:
                del self.entries[key]
                self.invalidated += 1

    def _ttl_sweep_proc(self):
        """Bookkeeping sweep: retire entries whose TTL has passed (a
        lookup would treat them as misses anyway; sweeping bounds the
        map and keeps ``entries`` an honest freshness witness)."""
        while True:
            yield Pause(self.poll)
            now = yield GET_TIME
            stale = [
                key for key, expiry in self.entries.items() if expiry <= now
            ]
            for key in stale:
                del self.entries[key]
            if stale:
                self.expired_entries += len(stale)
                yield Compute(usec(5) * len(stale))

    # -- reporting -----------------------------------------------------------

    @property
    def amplification(self) -> float:
        """Backend fetches per distinct miss window.

        A window opens when a fetch is minted for a key with none in
        flight and closes when the key's in-flight count drains; one
        fetch per window is the ideal the single-flight guard enforces
        (so with the guard on this is exactly 1.0).  With the guard off
        every concurrent miss in the window fetches too, and the factor
        measures how hard the stampede hammers the backend."""
        return self.fetches / self.fetch_windows if self.fetch_windows else 0.0

    def cache_counters(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(
                self.hits / (self.hits + self.misses), 6
            ) if (self.hits + self.misses) else 0.0,
            "coalesced_waits": self.coalesced_waits,
            "fetches": self.fetches,
            "fetch_windows": self.fetch_windows,
            "fills": self.fills,
            "failed_fills": self.failed_fills,
            "stale_fills": self.stale_fills,
            "expired_entries": self.expired_entries,
            "invalidated": self.invalidated,
            "passthrough": self.passthrough,
            "evictions": self.evictions,
            "capacity": self.capacity,
            "amplification": round(self.amplification, 6),
            "max_inflight_per_key": self.max_inflight_per_key,
            "single_flight": self.single_flight,
            "live_entries": len(self.entries),
        }
