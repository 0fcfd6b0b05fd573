"""Assembling and running compiled workload scenarios.

:func:`build_workload_world` stands up the sharded cluster *without* its
default per-tenant traffic loops, optionally fronts it with a
:class:`~repro.cluster.cache.CacheTier`, and installs the scenario's
compiled client populations on whichever layer faces the clients.
:func:`run_workload` is the one-call entry point used by the CLI, the
golden scenarios, the chaos sweep and ``bench_workload``.

The :class:`WorkloadReport` folds a run down to the *client-facing*
story: per-tenant counters and latency as the population experienced
them (the cache tier's books for cached tenants, the cluster rollup for
the rest — each request counted at exactly one client-facing layer),
plus per-tenant **SLO attainment**.  Attainment is reported two ways:

* ``latency_attainment`` — among completed requests, the fraction whose
  recorded latency met the tenant's SLO target (CO-aware: stragglers
  and resubmits charge their stalls here);
* ``slo_attainment`` — the honest headline: latency attainment scaled
  by the completion rate, so sheds, give-ups and failures count as
  misses instead of silently leaving the denominator.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any

from repro.cluster.balancer import LoadBalancer
from repro.cluster.cache import INVALIDATE_ALL, CacheTier
from repro.cluster.world import (
    DEFAULT_DURATION,
    build_cluster_world,
    summarize_cluster,
)
from repro.kernel.config import KernelConfig
from repro.runtime.pcr import World
from repro.server.latency import attainment_from_dict
from repro.server.model import ServerStats
from repro.workload.compiler import ResubmitSink, install_workload
from repro.workload.scenarios import WorkloadSpec, workload_spec


@dataclass
class WorkloadWorld:
    """A live compiled scenario: cluster, optional cache, sinks."""

    world: World
    spec: WorkloadSpec
    balancer: LoadBalancer
    cache: CacheTier | None
    sinks: dict[str, ResubmitSink]
    single_flight: bool | None


@dataclass
class WorkloadReport:
    """One workload run, folded to its SLO-attainment story."""

    scenario: str
    seed: int
    duration: int
    total_clients: int
    #: None when the scenario has no cache tier.
    single_flight: bool | None
    #: Client-facing per-tenant rows: counters, latency, attainment.
    tenants: dict = field(default_factory=dict)
    totals: dict = field(default_factory=dict)
    #: :meth:`CacheTier.cache_counters` snapshot, or None.
    cache: dict | None = None
    #: Per-class resubmit-sink counters (storm bookkeeping).
    sinks: dict = field(default_factory=dict)
    #: The backend cluster's own rollup (fetch traffic included).
    cluster: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def completed(self) -> int:
        return self.totals["completed"]

    @property
    def attainment(self) -> dict[str, float]:
        """Per-tenant headline SLO attainment."""
        return {
            name: row["slo_attainment"] for name, row in self.tenants.items()
        }

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "duration_us": self.duration,
            "total_clients": self.total_clients,
            "single_flight": self.single_flight,
            "digest": self.digest,
            "tenants": self.tenants,
            "totals": self.totals,
            "cache": self.cache,
            "sinks": self.sinks,
            "cluster": self.cluster,
        }


def build_workload_world(
    config: KernelConfig | None = None,
    *,
    scenario: str = "diurnal",
    spec: WorkloadSpec | None = None,
    single_flight: bool | None = None,
) -> WorkloadWorld:
    """Build the scenario: cluster up, cache (maybe) fronted, load on.

    ``single_flight`` overrides the spec's default — the stampede
    benchmark runs the same scenario twice, guard on and guard off.
    """
    if spec is None:
        spec = workload_spec(scenario)
    if single_flight is None:
        single_flight = spec.single_flight
    world, balancer = build_cluster_world(
        config,
        shards=spec.shards,
        workers_per_shard=spec.workers_per_shard,
        policy=spec.policy,
        admission=spec.admission,
        admission_capacity=spec.admission_capacity,
        tenants=spec.tenants,
        install_traffic=False,
    )
    cache: CacheTier | None = None
    frontend: Any = balancer
    if spec.cache:
        cache = CacheTier(
            world,
            balancer,
            spec.tenants,
            single_flight=single_flight,
            capacity=spec.cache_capacity,
        )
        cache.start()
        frontend = cache
    sinks = install_workload(frontend, spec.classes)
    if spec.invalidate_every and cache is not None:
        # Periodic wildcard invalidation — the stampede trigger.
        world.kernel.post_every(
            spec.invalidate_every,
            lambda k: cache.invalidations.post(INVALIDATE_ALL),
        )
    return WorkloadWorld(
        world=world,
        spec=spec,
        balancer=balancer,
        cache=cache,
        sinks=sinks,
        single_flight=single_flight if spec.cache else None,
    )


def _client_rows(ww: WorkloadWorld, cluster_merged: dict) -> dict:
    """Per-tenant counters/latency as the clients experienced them.

    Without a cache the cluster rollup *is* the client view.  With one,
    cached tenants live entirely on the cache tier's books (their
    cluster rows are internal fetch traffic), while uncached tenants
    terminate at the shards — except the mint-side counters (``offered``,
    ``give_ups``, ``client_retries``), which the compiler bumps on the
    frontend, i.e. the cache.
    """
    if ww.cache is None:
        return {
            name: dict(row)
            for name, row in cluster_merged["tenants"].items()
        }
    cache_stats = ww.cache.stats
    rows: dict[str, dict] = {}
    for tenant in ww.spec.tenants:
        name = tenant.name
        cache_row = cache_stats.per_tenant.get(
            name, dict.fromkeys(ServerStats.KINDS, 0)
        )
        cache_latency = cache_stats.tenant_latency.get(name)
        if tenant.cached:
            rows[name] = {
                **cache_row,
                "latency": cache_latency.to_dict() if cache_latency else None,
            }
        else:
            cluster_row = dict(
                cluster_merged["tenants"].get(
                    name,
                    {**dict.fromkeys(ServerStats.KINDS, 0), "latency": None},
                )
            )
            for kind in ("offered", "give_ups", "client_retries"):
                cluster_row[kind] = cache_row[kind]
            rows[name] = cluster_row
    return rows


def summarize_workload(
    ww: WorkloadWorld, *, seed: int, duration: int
) -> WorkloadReport:
    """Fold a finished (or still-live) workload world into a report."""
    spec = ww.spec
    cluster = summarize_cluster(
        ww.balancer, scenario=spec.name, seed=seed, duration=duration
    )
    rows = _client_rows(ww, cluster.merged)
    slo_by_name = {t.name: t.slo_us for t in spec.tenants}
    tenants: dict[str, dict] = {}
    for name, row in sorted(rows.items()):
        slo_us = slo_by_name.get(name, 0)
        offered = row.get("offered", 0)
        completed = row.get("completed", 0)
        latency_att = attainment_from_dict(row.get("latency"), slo_us)
        completion = completed / offered if offered else 1.0
        tenants[name] = {
            **row,
            "slo_us": slo_us,
            "latency_attainment": round(latency_att, 6),
            "slo_attainment": round(latency_att * completion, 6),
        }
    totals = {
        kind: sum(row.get(kind, 0) for row in tenants.values())
        for kind in ServerStats.KINDS
    }
    sinks = {
        name: {
            "resubmitted": sink.resubmitted,
            "give_ups": sink.give_ups,
            "completed": sink.completed,
            "failed": sink.failed,
        }
        for name, sink in sorted(ww.sinks.items())
    }
    cache = ww.cache.cache_counters() if ww.cache is not None else None
    report = WorkloadReport(
        scenario=spec.name,
        seed=seed,
        duration=duration,
        total_clients=spec.total_clients,
        single_flight=ww.single_flight,
        tenants=tenants,
        totals=totals,
        cache=cache,
        sinks=sinks,
        cluster={
            "digest": cluster.digest,
            "throughput_per_sec": round(cluster.throughput_per_sec, 3),
            "shed_fraction": round(cluster.shed_fraction, 6),
            "totals": cluster.merged["totals"],
            "latency": cluster.merged["latency"],
        },
    )
    canonical = {
        "tenants": tenants,
        "totals": totals,
        "cache": cache,
        "sinks": sinks,
        "cluster_digest": cluster.digest,
    }
    report.digest = hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()
    ).hexdigest()
    return report


def run_workload(
    *,
    seed: int = 0,
    scenario: str = "diurnal",
    spec: WorkloadSpec | None = None,
    single_flight: bool | None = None,
    duration: int = DEFAULT_DURATION,
) -> WorkloadReport:
    """Run one compiled scenario and fold it into a report.

    The world gets one CPU per shard, plus one for the cache tier when
    the scenario has one.
    """
    if spec is None:
        spec = workload_spec(scenario)
    config = KernelConfig(
        seed=seed, ncpus=spec.shards + (1 if spec.cache else 0)
    )
    ww = build_workload_world(
        config, spec=spec, single_flight=single_flight
    )
    ww.world.run_for(duration)
    report = summarize_workload(ww, seed=seed, duration=duration)
    ww.world.shutdown()
    return report
