"""Cache-tier tests: hit/miss accounting, TTL, invalidation, and the
single-flight guard's stampede contrast.

Each test compiles a small purpose-built :class:`WorkloadSpec` (tiny
populations, short runs) so the counter it pins is the dominant effect,
then reads the :class:`~repro.cluster.cache.CacheTier`'s books from the
report's ``cache`` counters.
"""

from repro.kernel.simtime import msec, sec, usec
from repro.server.model import TenantSpec
from repro.workload import ClientClass, WorkloadSpec, run_workload


def _cached_tenant(name="reads", *, cost=usec(400), keys=4, hot=0.5,
                   ttl=msec(100), deadline=msec(500)) -> TenantSpec:
    return TenantSpec(
        name=name, mode="open", cost=cost, deadline=deadline,
        slo=msec(100), cached=True, cache_keys=keys, cache_hot_frac=hot,
        cache_ttl=ttl,
    )


def _spec(name, classes, **kwargs) -> WorkloadSpec:
    return WorkloadSpec(name=name, classes=classes, cache=True, **kwargs)


def _reads(tenant, clients=30_000, rate=0.01) -> ClientClass:
    return ClientClass(tenant=tenant, clients=clients, rate_per_client=rate)


def _run(spec, *, duration=msec(500), single_flight=None):
    report = run_workload(
        spec=spec, duration=duration, single_flight=single_flight
    )
    return report, report.cache


# -- steady state ------------------------------------------------------------

def test_warm_cache_hits_dominate():
    """Long TTL and a small key space: after one fill per key, reads hit."""
    spec = _spec("warm", (_reads(_cached_tenant(ttl=sec(10))),))
    report, cache = _run(spec)
    assert cache["hits"] > cache["misses"]
    assert cache["hit_rate"] > 0.5
    assert cache["fills"] > 0
    assert cache["failed_fills"] == 0
    assert report.tenants["reads"]["completed"] > 0


def test_counters_are_consistent():
    """Every cacheable arrival is classified exactly once: hits + misses
    accounts for all completed lookups, and every miss either coalesced
    onto an in-flight fetch or minted one."""
    spec = _spec("consistent", (_reads(_cached_tenant()),))
    report, cache = _run(spec)
    offered = report.tenants["reads"]["offered"]
    assert 0 < cache["hits"] + cache["misses"] <= offered
    assert cache["misses"] == cache["coalesced_waits"] + cache["fetches"]


def test_single_flight_amplification_is_exactly_one():
    spec = _spec("guarded", (_reads(_cached_tenant(keys=2, hot=0.9)),))
    _, cache = _run(spec, single_flight=True)
    assert cache["fetches"] == cache["fetch_windows"]
    assert cache["amplification"] == 1.0
    assert cache["max_inflight_per_key"] == 1


def test_guard_off_duplicates_fetches():
    """Same scenario without the guard: concurrent misses on the hot
    key each fetch, so fetches outrun miss windows and the per-key
    in-flight depth exceeds one — the stampede in miniature."""
    tenant = _cached_tenant(keys=2, hot=0.9, ttl=msec(20), cost=usec(800))
    spec = _spec("stampy", (_reads(tenant, clients=60_000, rate=0.01),))
    _, off = _run(spec, single_flight=False)
    _, on = _run(spec, single_flight=True)
    assert off["coalesced_waits"] == 0
    assert off["fetches"] > off["fetch_windows"]
    assert off["amplification"] > 1.0
    assert off["max_inflight_per_key"] > 1
    assert on["coalesced_waits"] > 0
    assert off["fetches"] > on["fetches"]


def test_passthrough_for_uncached_tenants():
    """An uncached tenant rides through the cache untouched and is
    served (and counted) by the backend cluster."""
    api = TenantSpec(name="api", mode="open", cost=usec(400),
                     deadline=msec(400), slo=msec(100))
    spec = _spec("mixed", (
        _reads(_cached_tenant(ttl=sec(10))),
        ClientClass(tenant=api, clients=20_000, rate_per_client=0.01),
    ))
    report, cache = _run(spec)
    assert cache["hits"] > 0
    assert report.tenants["api"]["completed"] > 0
    assert report.cluster["totals"]["completed"] >= (
        report.tenants["api"]["completed"]
    )


# -- freshness: TTL, invalidation, dead-on-arrival fills ---------------------

def test_ttl_expires_entries():
    spec = _spec("expiring", (_reads(_cached_tenant(ttl=msec(30))),))
    _, cache = _run(spec)
    assert cache["expired_entries"] > 0
    assert cache["fills"] > cache["live_entries"]  # refilled many times


def test_invalidation_forces_refetch():
    """Wildcard invalidations drop every entry, so each cycle pays
    fresh fetches even though the TTL alone would have kept them."""
    quiet = _spec("quiet", (_reads(_cached_tenant(ttl=sec(10))),))
    noisy = _spec(
        "noisy", (_reads(_cached_tenant(ttl=sec(10))),),
        invalidate_every=msec(50),
    )
    _, without = _run(quiet)
    _, with_inval = _run(noisy)
    assert with_inval["invalidated"] > 0
    assert without["invalidated"] == 0
    assert with_inval["fetch_windows"] > without["fetch_windows"]


def test_fill_slower_than_ttl_is_dead_on_arrival():
    """Freshness dates from fetch *initiation*: when the fill latency
    exceeds the TTL the value is already stale on arrival — it serves
    its waiters but is never cached, so the cache never warms.  (This
    is the mechanism that keeps an unguarded stampede metastable.)"""
    tenant = _cached_tenant(ttl=msec(1), cost=usec(3000), keys=1, hot=1.0)
    spec = _spec("doa", (_reads(tenant, clients=10_000, rate=0.01),))
    report, cache = _run(spec, single_flight=True)
    assert cache["fills"] > 0
    assert cache["stale_fills"] == cache["fills"]
    assert cache["hits"] == 0
    assert cache["live_entries"] == 0
    # The waiters were still answered, just never from cache.
    assert report.tenants["reads"]["completed"] > 0


# -- determinism -------------------------------------------------------------

def test_cache_run_is_deterministic():
    spec = _spec("det", (_reads(_cached_tenant(ttl=msec(40))),))
    first, first_cache = _run(spec)
    second, second_cache = _run(spec)
    assert first.digest == second.digest
    assert first_cache == second_cache


# -- capacity: LRU eviction --------------------------------------------------

def test_unbounded_cache_never_evicts():
    spec = _spec("nolimit", (_reads(_cached_tenant(ttl=sec(10))),))
    _, cache = _run(spec)
    assert cache["capacity"] is None
    assert cache["evictions"] == 0


def test_capacity_evicts_lru():
    """A cache smaller than the key space churns: fills into the full
    map push out the least-recently-used entry and the live map never
    exceeds the configured capacity."""
    tenant = _cached_tenant(ttl=sec(10), keys=4, hot=0.0)
    spec = _spec("bounded", (_reads(tenant),), cache_capacity=2)
    _, cache = _run(spec)
    assert cache["capacity"] == 2
    assert cache["evictions"] > 0
    assert cache["live_entries"] <= 2
    # Every eviction is a future miss: with 4 uniformly drawn keys and
    # room for 2, refills (fetch windows beyond the first fill of each
    # key) must keep happening.
    assert cache["fetch_windows"] > 4


def test_capacity_one_keeps_single_flight_amplification():
    """The ISSUE pin: even a capacity-1 cache (maximum churn — every
    fill for a new key evicts the previous entry) keeps the guard's
    amplification at exactly 1.0: eviction storms widen miss windows
    but never mint duplicate fetches."""
    tenant = _cached_tenant(ttl=sec(10), keys=3, hot=0.5)
    spec = _spec("tiny", (_reads(tenant),), cache_capacity=1)
    _, cache = _run(spec, single_flight=True)
    assert cache["capacity"] == 1
    assert cache["evictions"] > 0
    assert cache["live_entries"] <= 1
    assert cache["fetches"] == cache["fetch_windows"]
    assert cache["amplification"] == 1.0
    assert cache["max_inflight_per_key"] == 1
