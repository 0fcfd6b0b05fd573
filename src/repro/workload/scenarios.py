"""The pinned workload scenarios: million-client mixes with a story.

Each :class:`WorkloadSpec` names a cluster configuration plus a tuple of
:class:`~repro.workload.compiler.ClientClass` populations.  Rates are
sized against the default two-shard cluster (capacity roughly 3300
requests/second at ~600 µs/request), so "steady" scenarios fit and the
storm scenarios credibly overflow.

``diurnal``
    Three populations totalling ~350 k clients: a day-curved web tier,
    a heavy-tailed api tier (bounded-Pareto cost multipliers), and a
    straggler-prone mobile tier.  Golden-pinned.

``flash-crowd``
    1.2 **million** open-loop browsers at a trickle each (~1800/s
    aggregate) spiking 3.5x for 400 ms mid-run — the scale witness: the
    arrival machinery is O(events), so a million clients cost the same
    wall-clock order as the four-tenant pinned mixes.

``retry-storm``
    A near-capacity population that resubmits 90% of sheds with short
    backoff: shed -> resubmit -> amplified load, the metastable loop,
    measured honestly because resubmits keep their intended times.

``cache-steady``
    A cache tier absorbing a hot-skewed read population; hits dominate,
    the backend sees only fetches and the uncached api tier.
    Golden-pinned.

``cache-stampede``
    A hot-key read population (85% of reads on one key) with a short
    TTL and a periodic wildcard invalidation.  With single-flight *off*
    every concurrent miss fetches and the duplicate fetches saturate
    the backend; with the guard *on* each expiry costs one fetch and
    the coalesced waiters ride the same fill.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.simtime import msec, usec
from repro.server.model import TenantSpec
from repro.workload.compiler import ClientClass
from repro.workload.shapes import Constant, Diurnal, FlashCrowd

WORKLOAD_SCENARIOS = (
    "diurnal", "flash-crowd", "retry-storm", "cache-steady",
    "cache-stampede",
)


@dataclass(frozen=True)
class WorkloadSpec:
    """One compiled scenario: populations plus cluster shape."""

    name: str
    classes: tuple[ClientClass, ...]
    cache: bool = False
    single_flight: bool = True
    #: Sim-time period of wildcard cache invalidations; 0 disables.
    invalidate_every: int = 0
    shards: int = 2
    workers_per_shard: int = 4
    policy: str = "p2c"
    admission: str = "wfq"
    admission_capacity: int = 64
    #: LRU entry capacity of the cache tier; None means unbounded.
    cache_capacity: "int | None" = None
    notes: str = ""

    @property
    def tenants(self) -> tuple[TenantSpec, ...]:
        return tuple(cls.tenant for cls in self.classes)

    @property
    def total_clients(self) -> int:
        return sum(cls.clients for cls in self.classes)


def _diurnal_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="diurnal",
        classes=(
            ClientClass(
                tenant=TenantSpec(
                    name="web", mode="open", cost=usec(500),
                    deadline=msec(400), slo=msec(80), weight=2,
                ),
                clients=200_000,
                rate_per_client=0.006,
                shape=Diurnal(period=msec(800), low=0.4, high=1.0),
            ),
            ClientClass(
                tenant=TenantSpec(
                    name="api", mode="open", cost=usec(450),
                    deadline=msec(400), slo=msec(100), weight=2,
                    cost_tail_prob=0.08, cost_tail_alpha=1.3,
                    cost_tail_cap=40.0,
                ),
                clients=50_000,
                rate_per_client=0.012,
            ),
            ClientClass(
                tenant=TenantSpec(
                    name="mobile", mode="open", cost=usec(400),
                    deadline=msec(500), slo=msec(250), weight=1,
                ),
                clients=100_000,
                rate_per_client=0.003,
                straggler_prob=0.2,
                straggler_stall=msec(120),
            ),
        ),
        notes="day curve + heavy tail + stragglers, inside capacity",
    )


def _flash_crowd_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="flash-crowd",
        classes=(
            ClientClass(
                tenant=TenantSpec(
                    name="crowd", mode="open", cost=usec(550),
                    deadline=msec(400), slo=msec(120), weight=2,
                ),
                clients=1_200_000,
                rate_per_client=0.0015,
                shape=FlashCrowd(
                    spike=3.5, start=msec(600), ramp=msec(100),
                    hold=msec(400),
                ),
            ),
            ClientClass(
                tenant=TenantSpec(
                    name="api", mode="open", cost=usec(500),
                    deadline=msec(400), slo=msec(100), weight=2,
                ),
                clients=20_000,
                rate_per_client=0.01,
            ),
        ),
        notes="1.2M clients, 3.5x spike overruns the cluster mid-run",
    )


def _retry_storm_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="retry-storm",
        classes=(
            ClientClass(
                tenant=TenantSpec(
                    name="flood", mode="open", cost=usec(600),
                    deadline=msec(400), slo=msec(150), weight=1,
                ),
                clients=300_000,
                rate_per_client=0.011,
                resubmit_prob=0.9,
                resubmit_backoff=msec(25),
                max_resubmits=3,
            ),
            ClientClass(
                tenant=TenantSpec(
                    name="victim", mode="open", cost=usec(400),
                    deadline=msec(400), slo=msec(100), weight=2,
                ),
                clients=20_000,
                rate_per_client=0.01,
                shape=Constant(),
            ),
        ),
        notes="near-capacity flood resubmitting 90% of sheds",
    )


def _cache_steady_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="cache-steady",
        classes=(
            ClientClass(
                tenant=TenantSpec(
                    name="reads", mode="open", cost=usec(700),
                    deadline=msec(500), slo=msec(50), weight=2,
                    cached=True, cache_keys=32, cache_hot_frac=0.3,
                    cache_ttl=msec(300),
                ),
                clients=150_000,
                rate_per_client=0.01,
            ),
            ClientClass(
                tenant=TenantSpec(
                    name="api", mode="open", cost=usec(500),
                    deadline=msec(400), slo=msec(100), weight=2,
                ),
                clients=40_000,
                rate_per_client=0.01,
            ),
        ),
        cache=True,
        notes="hot-skewed reads mostly served from cache",
    )


def _cache_stampede_spec() -> WorkloadSpec:
    return WorkloadSpec(
        name="cache-stampede",
        classes=(
            ClientClass(
                tenant=TenantSpec(
                    name="hot", mode="open", cost=usec(900),
                    deadline=msec(500), slo=msec(100), weight=2,
                    cached=True, cache_keys=4, cache_hot_frac=0.85,
                    cache_ttl=msec(12),
                ),
                clients=850_000,
                rate_per_client=0.006,
            ),
            ClientClass(
                tenant=TenantSpec(
                    name="api", mode="open", cost=usec(500),
                    deadline=msec(400), slo=msec(100), weight=2,
                ),
                clients=30_000,
                rate_per_client=0.01,
            ),
        ),
        cache=True,
        invalidate_every=msec(250),
        notes="hot key + short TTL + wildcard invalidations",
    )


_SPECS: dict[str, object] = {
    "diurnal": _diurnal_spec,
    "flash-crowd": _flash_crowd_spec,
    "retry-storm": _retry_storm_spec,
    "cache-steady": _cache_steady_spec,
    "cache-stampede": _cache_stampede_spec,
}


def workload_spec(name: str) -> WorkloadSpec:
    """The pinned scenario by name (see module docstring)."""
    try:
        build = _SPECS[name]
    except KeyError:
        raise ValueError(
            f"unknown workload scenario {name!r}; "
            f"available: {sorted(_SPECS)}"
        ) from None
    return build()


# Keep WorkloadSpec.field import referenced for dataclasses tooling.
_ = field
