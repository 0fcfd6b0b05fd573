"""Assembling and running the sharded cluster world.

:func:`build_cluster_world` wires N :class:`~repro.server.server.RpcServer`
shards plus a :class:`~repro.cluster.balancer.LoadBalancer` onto one
:class:`~repro.runtime.pcr.World`; :func:`run_cluster` is the one-call
entry point used by the CLI, the benchmarks, the golden scenarios and
the chaos sweep.

The world :func:`run_cluster` builds gets ``ncpus == shards``, doubled
with replicas — each shard (and replica) is "its own machine", which is
the point of sharding: the steady mix overloads one simulated processor
but fits two, so the cluster's throughput win over the single-server
world is capacity, not accounting.

The :class:`ClusterReport` folds the run down: per-shard statistics,
the balancer's admission/health story, *merged* per-tenant counters
(balancer + every shard, no double counting — the balancer never bumps
``admitted``) and latency histograms, folded together with
:meth:`~repro.server.model.ServerStats.merge`.  Its ``digest`` is the
cluster-level determinism witness.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from repro.cluster.balancer import LoadBalancer
from repro.cluster.model import cluster_tenants
from repro.cluster.replication import (
    LEASE_TTL_POLLS,
    BalancerLease,
    ReplicationLink,
    StandbyBalancer,
)
from repro.kernel.config import KernelConfig
from repro.kernel.simtime import sec
from repro.runtime.pcr import World
from repro.server.clients import install_closed_loop, install_open_loop
from repro.server.model import ServerStats, TenantSpec
from repro.server.server import RpcServer

#: Default simulated run length, matching the single-server world.
DEFAULT_DURATION = sec(2)

#: Default balancer admission capacity (shared or per-tenant-divided).
DEFAULT_ADMISSION_CAPACITY = 64

#: Default per-shard worker pool.
DEFAULT_WORKERS_PER_SHARD = 4


@dataclass
class ClusterReport:
    """One cluster run, folded down to its SLO story."""

    scenario: str
    seed: int
    policy: str
    admission: str
    shards: int
    workers_per_shard: int
    duration: int
    #: Merged per-tenant counters (balancer + shards) and latency.
    merged: dict = field(default_factory=dict)
    #: The balancer's own counters, depth samples and health events.
    balancer: dict = field(default_factory=dict)
    #: Per-shard ``ServerStats.to_dict()`` snapshots, in shard order.
    per_shard: list = field(default_factory=list)
    #: Demoted primaries' snapshots (non-empty only after a promotion).
    retired: list = field(default_factory=list)
    digest: str = ""

    @property
    def completed(self) -> int:
        return self.merged["totals"]["completed"]

    @property
    def throughput_per_sec(self) -> float:
        seconds = self.duration / 1_000_000
        return self.completed / seconds if seconds else 0.0

    @property
    def shed_fraction(self) -> float:
        offered = self.merged["totals"]["offered"]
        return self.merged["totals"]["shed"] / offered if offered else 0.0

    def tenant_share(self, tenant: str) -> float:
        """This tenant's fraction of all completed requests."""
        total = self.completed
        row = self.merged["tenants"].get(tenant)
        return row["completed"] / total if row and total else 0.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "policy": self.policy,
            "admission": self.admission,
            "shards": self.shards,
            "workers_per_shard": self.workers_per_shard,
            "duration_us": self.duration,
            "throughput_per_sec": round(self.throughput_per_sec, 3),
            "shed_fraction": round(self.shed_fraction, 6),
            "digest": self.digest,
            "merged": self.merged,
            "balancer": self.balancer,
            "per_shard": self.per_shard,
            "retired": self.retired,
        }


def merge_cluster_stats(
    balancer: LoadBalancer, shards: tuple[RpcServer, ...]
) -> dict:
    """Cluster-wide rollup: counters summed, histograms merged.

    The balancer contributes ``offered``/``shed``/``failed``/``retries``
    (it never bumps ``admitted`` or records latency), each shard
    contributes everything downstream of dispatch, so summing the layers
    counts each event exactly once.
    """
    sources = [balancer.stats]
    sources += [s.stats for s in shards]
    # After a promotion the demoted primary leaves the routing table but
    # its counters must not leave the books; un-promoted replicas are
    # normally all-zero but are folded in for the same conservation
    # argument.
    sources += [s.stats for s in getattr(balancer, "retired", ())]
    for link in getattr(balancer, "links", None) or ():
        if not link.promoted:
            sources.append(link.replica.stats)
    merged = ServerStats()
    for stats in sources:
        merged.merge(stats)
    rollup = merged.to_dict()
    return {
        key: rollup[key] for key in ("latency", "tenants", "totals", "batches")
    }


def build_cluster_world(
    config: KernelConfig | None = None,
    *,
    scenario: str = "steady",
    shards: int = 2,
    workers_per_shard: int = DEFAULT_WORKERS_PER_SHARD,
    policy: str = "p2c",
    admission: str = "wfq",
    admission_capacity: int = DEFAULT_ADMISSION_CAPACITY,
    tenants: tuple[TenantSpec, ...] | None = None,
    replicas: bool = False,
    standby: bool | None = None,
    install_traffic: bool = True,
) -> tuple[World, LoadBalancer]:
    """Build the cluster: shards started, balancer fronted, traffic on.

    ``install_traffic=False`` skips the per-tenant client loops — the
    workload compiler drives such a cluster with its own aggregate
    arrival chains (and possibly a cache tier in front), without the
    default generators double-offering traffic.

    ``replicas=True`` pairs every shard with a replica fed by a
    log-shipping :class:`~repro.cluster.replication.ReplicationLink` and
    arms the balancer lease; ``standby`` (defaults to ``replicas``)
    additionally parks a
    :class:`~repro.cluster.replication.StandbyBalancer` on the lease.
    With both off, the construction sequence is byte-identical to the
    pre-replication cluster — the pinned golden schedules depend on it.
    """
    if shards < 1:
        raise ValueError("shards must be >= 1")
    world = World(config)
    mix = tenants if tenants is not None else cluster_tenants(scenario)
    pool = tuple(
        RpcServer(
            world,
            mix,
            workers=workers_per_shard,
            name=f"shard{sid}",
        )
        for sid in range(shards)
    )
    for shard in pool:
        shard.start()
    links: tuple[ReplicationLink, ...] | None = None
    if replicas:
        built = []
        for sid, primary in enumerate(pool):
            replica = RpcServer(
                world,
                mix,
                workers=workers_per_shard,
                name=f"shard{sid}r",
            )
            replica.start()
            built.append(ReplicationLink(world, primary, replica, sid))
        links = tuple(built)
    use_standby = replicas if standby is None else standby
    lease = None
    if replicas or use_standby:
        lease = BalancerLease(LEASE_TTL_POLLS * world.kernel.config.quantum)
    balancer = LoadBalancer(
        world,
        pool,
        mix,
        policy=policy,
        admission_policy=admission,
        admission_capacity=admission_capacity,
        links=links,
        lease=lease,
    )
    for link in links or ():
        link.install()
    balancer.start()
    if use_standby:
        balancer.standby = StandbyBalancer(world, balancer, lease)
        balancer.standby.start()
    if install_traffic:
        for tenant in mix:
            if tenant.mode == "open":
                install_open_loop(balancer, tenant)
            else:
                install_closed_loop(balancer, tenant)
    return world, balancer


def summarize_cluster(
    balancer: LoadBalancer,
    *,
    scenario: str,
    seed: int,
    duration: int,
) -> ClusterReport:
    """Fold a finished (or still-live) cluster into a report."""
    shards = balancer.shards
    merged = merge_cluster_stats(balancer, shards)
    balancer_view = {
        **balancer.stats.to_dict(),
        "policy": balancer.policy,
        "admission": balancer.admission_policy,
        "window": balancer.window,
        "healthy": list(balancer.healthy),
        "dispatched": list(balancer.dispatched),
        "rerouted_away": list(balancer.rerouted_away),
        "trips": balancer.trips,
        "recoveries": balancer.recoveries,
        "reroutes": balancer.reroutes,
        "lost_inflight": list(balancer.lost_inflight),
        "promotions": balancer.promotions,
        "replayed": balancer.replayed,
        "quarantined": balancer.quarantined,
        "promoted_at": list(balancer.promoted_at),
        "throttled": {
            name: bucket.throttled
            for name, bucket in sorted(balancer.buckets.items())
        },
    }
    if balancer.links is not None:
        balancer_view["replication"] = [
            {
                "shard": link.sid,
                "shipped": link.shipped,
                "applied": link.applied,
                "acked": len(link.acked),
                "promoted": link.promoted,
            }
            for link in balancer.links
        ]
    if balancer.lease is not None:
        balancer_view["lease"] = balancer.lease.to_dict()
    if balancer.standby is not None:
        balancer_view["standby"] = balancer.standby.to_dict()
    per_shard = [shard.stats.to_dict() for shard in shards]
    retired = [server.stats.to_dict() for server in balancer.retired]
    report = ClusterReport(
        scenario=scenario,
        seed=seed,
        policy=balancer.policy,
        admission=balancer.admission_policy,
        shards=len(shards),
        workers_per_shard=shards[0].workers,
        duration=duration,
        merged=merged,
        balancer=balancer_view,
        per_shard=per_shard,
        retired=retired,
    )
    canonical = {
        "merged": merged,
        "balancer": balancer_view,
        "per_shard": per_shard,
        "retired": retired,
    }
    report.digest = hashlib.sha256(
        json.dumps(canonical, sort_keys=True).encode()
    ).hexdigest()
    return report


def run_cluster(
    *,
    seed: int = 0,
    scenario: str = "steady",
    shards: int = 2,
    workers_per_shard: int = DEFAULT_WORKERS_PER_SHARD,
    policy: str = "p2c",
    admission: str = "wfq",
    admission_capacity: int = DEFAULT_ADMISSION_CAPACITY,
    duration: int = DEFAULT_DURATION,
    replicas: bool = False,
    tenants: tuple[TenantSpec, ...] | None = None,
) -> ClusterReport:
    """Run one cluster experiment and fold it into a report.

    Each shard is its own machine, so the world gets one CPU per shard,
    and one more per replica when ``replicas`` is set; a replicated
    cluster also parks a standby balancer on the lease.
    """
    config = KernelConfig(
        seed=seed, ncpus=shards * 2 if replicas else shards
    )
    world, balancer = build_cluster_world(
        config,
        scenario=scenario,
        shards=shards,
        workers_per_shard=workers_per_shard,
        policy=policy,
        admission=admission,
        admission_capacity=admission_capacity,
        tenants=tenants,
        replicas=replicas,
    )
    world.run_for(duration)
    report = summarize_cluster(
        balancer, scenario=scenario, seed=seed, duration=duration
    )
    world.shutdown()
    return report
