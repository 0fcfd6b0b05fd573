"""Data model of the server world: tenants, requests, statistics.

A *tenant* is one traffic class sharing the server — its own arrival
process (open-loop Poisson events or a closed-loop client population),
its own cost/deadline envelope, and its own RNG stream forked from the
kernel seed so adding a tenant never perturbs another tenant's arrival
sequence.  *Competitive Parallelism: Getting Your Priorities Right*
frames the tension this models: tenants compete for workers, and the
scheduler policy decides whose tail latency pays for whose throughput.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.kernel.simtime import msec, usec
from repro.server.latency import LatencyHistogram

#: Request terminal states.
DONE = "done"
SHED = "shed"
FAILED = "failed"
PENDING = "pending"

#: The stats row each verdict is booked under.
VERDICT_ROWS = {DONE: "completed", SHED: "shed", FAILED: "failed"}


@dataclass(frozen=True)
class TenantSpec:
    """One traffic class and its service-level envelope."""

    name: str
    #: "open" (Poisson arrival events) or "closed" (client threads).
    mode: str = "open"
    #: Open-loop offered load, requests per simulated second.
    rate_per_sec: float = 100.0
    #: Closed-loop client population and think time between requests.
    clients: int = 0
    think_time: int = msec(100)
    #: CPU burned per request, +- jitter fraction drawn per request.
    cost: int = usec(500)
    cost_jitter: float = 0.25
    #: Per-attempt deadline (enqueue -> dispatch) and retry budget.
    deadline: int = msec(400)
    max_retries: int = 2
    backoff: int = msec(50)
    #: Ordered tenants flow through a dedicated serializer thread.
    ordered: bool = False
    #: Write tenants' requests carry coalesce keys and ride the batcher.
    writes: bool = False
    write_keys: int = 8
    #: Admission patience: 0 sheds immediately, >0 waits (backpressure).
    admission_timeout: int = 0
    #: Priority of this tenant's closed-loop client threads.
    priority: int = 5
    #: Weighted-fair-queueing weight (WFQ admission serves tenants in
    #: proportion to their weights whenever they are backlogged).
    weight: int = 1
    #: Token-bucket rate limit at the balancer, requests per simulated
    #: second; 0 disables the bucket for this tenant.
    rate_limit_per_sec: float = 0.0
    #: Token-bucket burst allowance (ignored when the bucket is off).
    burst: int = 16
    #: Coordinated-omission-aware accounting: resubmitted requests keep
    #: the original intended send time, so the latency a closed-loop
    #: client recorded includes every shed-backoff wait before the
    #: request finally got in.  Off reproduces the PR-4 accounting that
    #: silently omitted those waits.
    co_aware: bool = True
    #: SLO latency target in µs for attainment reporting; 0 means "use
    #: the per-attempt deadline as the target".
    slo: int = 0
    #: Heavy-tailed service-time model: with probability
    #: ``cost_tail_prob`` the minted cost is further multiplied by a
    #: bounded-Pareto factor ``(1/u)**(1/alpha)`` capped at
    #: ``cost_tail_cap``.  0 disables the model *and* the RNG draws, so
    #: existing tenants' cost streams are byte-identical.
    cost_tail_prob: float = 0.0
    cost_tail_alpha: float = 1.5
    cost_tail_cap: float = 50.0
    #: Cache tier (see :mod:`repro.cluster.cache`): cached tenants' reads
    #: carry a cache key and are answered by the cache process; misses
    #: fan through to the backend as fetches.
    cached: bool = False
    cache_keys: int = 16
    #: Probability a read lands on the single hot key (key 0); the rest
    #: spread uniformly over the remaining keys.
    cache_hot_frac: float = 0.0
    #: Fill freshness lifetime: entries expire this long after the fill.
    cache_ttl: int = msec(500)

    @property
    def slo_us(self) -> int:
        """The effective SLO latency target."""
        return self.slo if self.slo > 0 else self.deadline


class Request:
    """One RPC through the system, across retries."""

    __slots__ = (
        "rid", "tenant", "submitted", "intended", "expires_at", "cost",
        "attempt", "key", "reply_to", "started_at", "completed_at",
        "status", "reroutes", "replays",
    )

    def __init__(
        self,
        rid: str,
        tenant: TenantSpec,
        submitted: int,
        cost: int,
        *,
        key: object = None,
        reply_to: object = None,
        intended: int | None = None,
    ) -> None:
        self.rid = rid
        self.tenant = tenant
        #: This submission's time — per-attempt deadlines run from here.
        self.submitted = submitted
        #: Intended send time: when the caller *meant* to issue the
        #: operation.  Defaults to ``submitted``; a closed-loop client
        #: resubmitting after a shed passes the original intended time
        #: through, so recorded latency includes the wait to get in
        #: (coordinated-omission awareness).
        self.intended = submitted if intended is None else intended
        self.expires_at = submitted + tenant.deadline
        self.cost = cost
        self.attempt = 0
        self.key = key
        self.reply_to = reply_to
        self.started_at: int | None = None
        self.completed_at: int | None = None
        self.status = PENDING
        #: Times a balancer pulled this request off a wedged shard and
        #: re-dispatched it (bounded; see repro.cluster.balancer).
        self.reroutes = 0
        #: Times a replica re-executed this request after a promotion
        #: (idempotent by rid; see repro.cluster.replication).
        self.replays = 0

    def rearm(self, now: int) -> None:
        """Start a fresh attempt: new per-attempt deadline."""
        self.attempt += 1
        self.expires_at = now + self.tenant.deadline
        self.status = PENDING

    def renew(self, now: int) -> None:
        """Fresh deadline *without* charging the retry budget.

        Reroutes and replica replays are the cluster's fault, not the
        request's: the tenant's ``max_retries`` envelope must not shrink
        because a shard wedged under it.
        """
        self.expires_at = now + self.tenant.deadline
        self.status = PENDING

    def __repr__(self) -> str:
        return f"<Request {self.rid} {self.status} attempt={self.attempt}>"


class RequestFactory:
    """Mints deterministic requests for one ingress point.

    The RPC server and the cluster load balancer both fabricate requests
    (jittered cost, write key, sequential rid) from RNG streams forked
    off the kernel seed.  Each ingress point gets its own factory, keyed
    by its name, so a shard's cost jitter never perturbs the balancer's
    and vice versa.
    """

    def __init__(self, seed: int, name: str) -> None:
        from repro.kernel.rng import DeterministicRng

        base = DeterministicRng(seed)
        self.cost_rng = base.fork(f"{name}:cost")
        self.retry_rng = base.fork(f"{name}:retry")
        self.key_rng = base.fork(f"{name}:key")
        self._rid_seq: dict[str, int] = {}

    def make(
        self,
        tenant: TenantSpec,
        now: int,
        *,
        reply_to: object = None,
        intended: int | None = None,
    ) -> Request:
        """Mint a request: deterministic rid, jittered cost, write key."""
        seq = self._rid_seq.get(tenant.name, 0)
        self._rid_seq[tenant.name] = seq + 1
        spread = 2.0 * self.cost_rng.uniform() - 1.0
        cost = max(1, round(tenant.cost * (1.0 + tenant.cost_jitter * spread)))
        if tenant.cost_tail_prob > 0.0 and self.cost_rng.chance(
            tenant.cost_tail_prob
        ):
            # Bounded Pareto: most draws near 1x, the occasional
            # cap-bounded monster — the heavy tail §service-time models
            # need, gated so zero-prob tenants draw nothing extra.
            u = max(self.cost_rng.uniform(), 1e-12)
            mult = min(
                tenant.cost_tail_cap,
                (1.0 / u) ** (1.0 / tenant.cost_tail_alpha),
            )
            cost = max(1, round(cost * mult))
        key = None
        if tenant.writes:
            key = f"{tenant.name}:k{self.key_rng.randint(0, tenant.write_keys - 1)}"
        return Request(
            f"{tenant.name}-{seq}",
            tenant,
            now,
            cost,
            key=key,
            reply_to=reply_to,
            intended=intended,
        )


class ServerStats:
    """Counters and the latency histogram, global and per tenant."""

    #: The counter kinds every tenant row carries, in report order.
    KINDS = (
        "offered", "admitted", "shed", "completed", "coalesced",
        "timeouts", "retries", "rerouted", "failed", "client_retries",
        "give_ups",
    )

    def __init__(self) -> None:
        self.latency = LatencyHistogram()
        self.per_tenant: dict[str, dict[str, int]] = {}
        self.tenant_latency: dict[str, LatencyHistogram] = {}
        #: (sim_time, admission_depth, shed_so_far) sampled by the
        #: deadline sleeper — queue depth over time for the SLO report.
        self.depth_samples: list[tuple[int, int, int]] = []
        self.batches = 0
        #: Per-kind sums over the tenant rows, kept by ``bump``, their writer.
        self._totals = dict.fromkeys(self.KINDS, 0)

    def bump(self, tenant: str, kind: str, amount: int = 1) -> None:
        row = self.per_tenant.get(tenant)
        if row is None:
            row = self.per_tenant[tenant] = dict.fromkeys(self.KINDS, 0)
        row[kind] += amount
        self._totals[kind] += amount

    def note_latency(self, tenant: str, latency_us: int) -> None:
        self.latency.record(latency_us)
        histogram = self.tenant_latency.get(tenant)
        if histogram is None:
            histogram = self.tenant_latency[tenant] = LatencyHistogram()
        histogram.record(latency_us)

    def total(self, kind: str) -> int:
        return self._totals[kind]

    def merge(self, other: "ServerStats") -> None:
        """Fold another frontend's rows, histograms and batch count in
        (the cluster rollup); depth samples stay with their owner."""
        self.latency.merge(other.latency)
        for name, histogram in other.tenant_latency.items():
            mine = self.tenant_latency.get(name)
            if mine is None:
                mine = self.tenant_latency[name] = LatencyHistogram()
            mine.merge(histogram)
        for name, row in other.per_tenant.items():
            for kind, value in row.items():
                self.bump(name, kind, value)
        self.batches += other.batches

    # -- reporting ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "latency": self.latency.to_dict(),
            "tenants": {
                name: {
                    **row,
                    "latency": self.tenant_latency[name].to_dict()
                    if name in self.tenant_latency else None,
                }
                for name, row in sorted(self.per_tenant.items())
            },
            "totals": {kind: self.total(kind) for kind in self.KINDS},
            "batches": self.batches,
            "depth_samples": self.depth_samples,
            "max_depth_sampled": max(
                (d for _, d, _ in self.depth_samples), default=0
            ),
        }

    def digest(self) -> str:
        """SHA-256 of the canonical stats — the CLI's determinism hash."""
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()


def scenario_tenants(scenario: str) -> tuple[TenantSpec, ...]:
    """The pinned tenant mixes.

    ``steady``  — offered load ~45% of one simulated CPU: queues stay
    shallow, deadlines are met, shedding is the exception.

    ``overload`` — the open-loop "api" tenant alone offers ~2x one CPU:
    admission control must shed instead of letting the queue grow
    without bound, and the tail shows it.
    """
    base = (
        TenantSpec(
            name="ordered",
            mode="open",
            rate_per_sec=120.0,
            cost=usec(500),
            deadline=msec(400),
            ordered=True,
        ),
        TenantSpec(
            name="writes",
            mode="open",
            rate_per_sec=150.0,
            cost=usec(250),
            deadline=msec(600),
            writes=True,
            write_keys=6,
            max_retries=1,
        ),
        TenantSpec(
            name="interactive",
            mode="closed",
            clients=6,
            think_time=msec(100),
            cost=usec(400),
            deadline=msec(300),
            priority=5,
        ),
    )
    if scenario == "steady":
        api = TenantSpec(
            name="api", mode="open", rate_per_sec=400.0,
            cost=usec(600), deadline=msec(400),
        )
    elif scenario == "overload":
        api = TenantSpec(
            name="api", mode="open", rate_per_sec=2600.0,
            cost=usec(600), deadline=msec(400),
        )
    else:
        raise ValueError(f"unknown server scenario {scenario!r}")
    return (api, *base)


SCENARIO_NAMES = ("steady", "overload")
