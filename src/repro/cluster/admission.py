"""Per-tenant admission control: weighted fair queueing and token buckets.

PR 4's admission queue was a single shared drop-tail FIFO — correct for
bounding *total* queue depth, but blind to who filled it: one tenant
offering 10x its share occupies almost every slot, and every other
tenant pays in sheds and queue-wait.  ``BENCH_server.json`` measured the
symptom (fair-share scheduling lifted overload throughput ~45% over
strict precisely because strict let the flood starve the pool).

:class:`WfqQueue` replaces the shared FIFO with one bounded sub-queue
per tenant plus virtual-finish-time weighted fair queueing across them:

* **Isolation** — a tenant's backlog can only fill its *own* sub-queue.
  The flood sheds against its own capacity; other tenants' ``try_put``
  still succeeds.
* **Weighted service** — each enqueued request gets a finish tag
  ``F = max(V, F_last[tenant]) + SCALE // weight`` where ``V`` is the
  virtual time (the tag of the last dequeued request).  ``get`` always
  returns the smallest tag, so backlogged tenants are served in
  proportion to their weights, and an idle tenant's first request lands
  near the current virtual time instead of deep in the past (no credit
  hoarding).
* **No starvation** — every weight is >= 1, so every enqueued request's
  tag is finite and strictly ordered; a backlogged tenant of weight 1
  competing with weight ``w`` receives ~``1/w`` of the service rate,
  never zero.

Everything is integer arithmetic on a monitor-protected structure using
the same Mesa pattern as :class:`~repro.sync.queues.BoundedQueue`, and
the class speaks the admission half of its protocol (``try_put``/``get``/
``prune``/``len``/``rejects``/``max_depth``), so the cluster balancer
takes it and drop-tail interchangeably.  Admission never parks a putter,
so there is no blocking ``put``.

:class:`TokenBucket` is the classic leaky-meter companion: a deterministic
integer bucket refilled lazily from simulated time, used by the balancer
to hard-cap a tenant's admitted rate regardless of queue state.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from repro.kernel.primitives import Notify, Wait
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor
from repro.sync.queues import reuse_wait

#: Virtual-time units charged per request at weight 1.  Tags are
#: ``SCALE // weight``, so any weight up to SCALE gets a distinct rate.
SCALE = 1 << 20


class TokenBucket:
    """A deterministic token bucket over simulated microseconds.

    ``rate_per_sec`` tokens accrue per simulated second up to ``burst``.
    Refill is computed lazily from elapsed time with an integer
    remainder carry, so the bucket is exact: after ``T`` seconds exactly
    ``floor(rate * T)`` tokens have been issued (plus the initial burst),
    independent of how often :meth:`take` was called.
    """

    __slots__ = ("rate_num", "burst", "tokens", "carry", "last", "taken",
                 "throttled")

    #: Denominator of the per-microsecond refill fraction.
    RATE_DEN = 1_000_000

    def __init__(self, rate_per_sec: float, burst: int) -> None:
        if rate_per_sec <= 0:
            raise ValueError("rate_per_sec must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        #: Tokens per second, as an integer numerator over RATE_DEN µs.
        self.rate_num = round(rate_per_sec)
        self.burst = burst
        self.tokens = burst
        self.carry = 0
        self.last = 0
        self.taken = 0
        self.throttled = 0

    def _refill(self, now: int) -> None:
        if now <= self.last:
            return
        elapsed = now - self.last
        self.last = now
        total = elapsed * self.rate_num + self.carry
        fresh, self.carry = divmod(total, self.RATE_DEN)
        if fresh:
            self.tokens = min(self.burst, self.tokens + fresh)

    def take(self, now: int, amount: int = 1) -> bool:
        """Spend ``amount`` tokens; False (and no spend) if short."""
        self._refill(now)
        if self.tokens < amount:
            self.throttled += 1
            return False
        self.tokens -= amount
        self.taken += amount
        return True

    def __repr__(self) -> str:
        return (f"<TokenBucket {self.tokens}/{self.burst} "
                f"rate={self.rate_num}/s>")


class WfqQueue:
    """Weighted-fair multi-queue with per-tenant bounds (see module doc).

    ``capacity`` bounds each tenant's *own* sub-queue; the aggregate
    bound is ``capacity * len(weights)``.  Items must carry a ``tenant``
    attribute whose ``name`` keys into ``weights`` (unknown tenants get
    weight 1 and a sub-queue on first use).
    """

    def __init__(
        self,
        name: str,
        capacity: int,
        weights: dict[str, int],
        *,
        get_timeout: int | None = None,
        carry: dict | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        for tenant, weight in weights.items():
            if weight < 1:
                raise ValueError(f"tenant {tenant!r} weight must be >= 1")
        self.name = name
        #: Per-tenant sub-queue capacity (the isolation bound).
        self.capacity = capacity
        self.weights = dict(weights)
        self.monitor = Monitor(f"{name}.lock")
        self.nonempty = ConditionVariable(
            self.monitor, f"{name}.nonempty", timeout=get_timeout
        )
        #: No thread waits here: admission only calls ``try_put``.  Yet
        #: ``get`` and ``prune`` still NOTIFY it once per freed slot, as
        #: :class:`~repro.sync.queues.BoundedQueue` does, because those
        #: traps are part of every pinned cluster and workload schedule.
        self.nonfull = ConditionVariable(self.monitor, f"{name}.nonfull")
        #: The NOTIFY traps, built once (traps are immutable), and the
        #: WAIT the last blocking get made (see
        #: :func:`~repro.sync.queues.reuse_wait`).
        self._notify_nonempty = Notify(self.nonempty)
        self._notify_nonfull = Notify(self.nonfull)
        self._wait_nonempty = Wait(self.nonempty)
        #: tenant -> deque of (finish_tag, seq, item).
        self.queues: dict[str, deque[tuple[int, int, Any]]] = {
            tenant: deque() for tenant in weights
        }
        #: Virtual time: finish tag of the last dequeued item.
        self.vtime = 0
        #: tenant -> finish tag of its last enqueued item.
        self.last_finish: dict[str, int] = dict.fromkeys(weights, 0)
        self._seq = 0
        self._size = 0
        self.puts = 0
        self.gets = 0
        #: Optional custody ledger (see
        #: :class:`repro.sync.queues.UnboundedQueue`).
        self.carry = carry
        #: ``try_put`` calls refused because the tenant's sub-queue was
        #: full.
        self.rejects = 0
        #: Aggregate high-water mark, for SLO diagnostics.
        self.max_depth = 0
        #: tenant -> items served, for share assertions.
        self.served: dict[str, int] = dict.fromkeys(weights, 0)

    # -- internals (call with the monitor held) -----------------------------

    def _tenant_of(self, item: Any) -> str:
        tenant = item.tenant.name
        if tenant not in self.queues:
            self.queues[tenant] = deque()
            self.weights[tenant] = 1
            self.last_finish[tenant] = 0
            self.served[tenant] = 0
        return tenant

    def _enqueue(self, tenant: str, item: Any) -> None:
        start = max(self.vtime, self.last_finish[tenant])
        finish = start + SCALE // self.weights[tenant]
        self.last_finish[tenant] = finish
        self._seq += 1
        self.queues[tenant].append((finish, self._seq, item))
        self._size += 1
        self.puts += 1
        if self._size > self.max_depth:
            self.max_depth = self._size

    def _dequeue(self) -> Any:
        best: str | None = None
        best_key: tuple[int, int] | None = None
        for tenant, queue in self.queues.items():
            if not queue:
                continue
            key = (queue[0][0], queue[0][1])
            if best_key is None or key < best_key:
                best, best_key = tenant, key
        assert best is not None and best_key is not None
        finish, _seq, item = self.queues[best].popleft()
        self.vtime = max(self.vtime, finish)
        self._size -= 1
        self.gets += 1
        self.served[best] += 1
        return item

    # -- the BoundedQueue protocol ------------------------------------------

    def try_put(self, item: Any):
        """Non-blocking put: True if enqueued, False if the tenant's
        sub-queue is full (generator)."""
        yield self.monitor.enter
        try:
            tenant = self._tenant_of(item)
            if len(self.queues[tenant]) >= self.capacity:
                self.rejects += 1
                return False
            self._enqueue(tenant, item)
            yield self._notify_nonempty
            return True
        finally:
            yield self.monitor.exit

    def get(self, timeout: int | None = None):
        """Dequeue the weighted-fair next item; None on timeout
        (generator)."""
        yield self.monitor.enter
        try:
            while self._size == 0:
                wait = self._wait_nonempty = reuse_wait(self._wait_nonempty, timeout)
                notified = yield wait
                if not notified and self._size == 0:
                    return None
            item = self._dequeue()
            if self.carry is not None:
                self.carry[item.rid] = item
            yield self._notify_nonfull
            return item
        finally:
            yield self.monitor.exit

    def prune(self, predicate: Any):
        """Remove and return every queued item matching ``predicate``
        (generator) — deadline sweeps and wedged-shard drains."""
        yield self.monitor.enter
        try:
            removed: list[Any] = []
            for tenant, queue in self.queues.items():
                kept: deque[tuple[int, int, Any]] = deque()
                for entry in queue:
                    if predicate(entry[2]):
                        removed.append(entry[2])
                    else:
                        kept.append(entry)
                self.queues[tenant] = kept
            self._size -= len(removed)
            for _ in removed:
                yield self._notify_nonfull
            return removed
        finally:
            yield self.monitor.exit

    def __len__(self) -> int:
        return self._size
