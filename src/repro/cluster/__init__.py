"""The sharded cluster world: balancer, admission policy, SLO rollups.

One layer up from :mod:`repro.server`: N RPC-server shards on one
simulated kernel (a CPU per shard, and one per replica — a machine each)
behind a load-balancer thread pipeline with pluggable routing (static
hash / round robin / power of two choices), per-tenant weighted-fair
or drop-tail admission with optional token-bucket rate limits, and a
sleeper-driven shard health breaker that evacuates and re-routes the
queued work of a wedged shard.

With ``replicas=True`` every shard gets a replica fed by deterministic
op-log shipping over a kernel channel; a tripped primary is *promoted
away from* instead of evacuated — the replica replays un-acked work,
idempotent by rid — and a standby balancer watches a kernel-timer lease
so the front door itself is no longer a single point of failure (see
:mod:`repro.cluster.replication` and docs/CLUSTER.md).
"""

from repro.cluster.admission import TokenBucket, WfqQueue
from repro.cluster.cache import CacheTier
from repro.cluster.balancer import (
    ADMISSION_POLICIES,
    BALANCER_POLICIES,
    LoadBalancer,
)
from repro.cluster.feedback import (
    AdaptationResult,
    adapt_weights,
    attainment_by_tenant,
    next_weights,
)
from repro.cluster.model import CLUSTER_SCENARIOS, cluster_tenants
from repro.cluster.replication import (
    BalancerLease,
    ReplicationLink,
    StandbyBalancer,
    install_balancer_kill,
    install_primary_kill,
    live_requests,
    lost_requests,
)
from repro.cluster.world import (
    ClusterReport,
    build_cluster_world,
    merge_cluster_stats,
    run_cluster,
    summarize_cluster,
)

__all__ = [
    "ADMISSION_POLICIES",
    "BALANCER_POLICIES",
    "CLUSTER_SCENARIOS",
    "AdaptationResult",
    "BalancerLease",
    "CacheTier",
    "ClusterReport",
    "LoadBalancer",
    "ReplicationLink",
    "StandbyBalancer",
    "TokenBucket",
    "WfqQueue",
    "adapt_weights",
    "attainment_by_tenant",
    "build_cluster_world",
    "cluster_tenants",
    "install_balancer_kill",
    "install_primary_kill",
    "live_requests",
    "lost_requests",
    "merge_cluster_stats",
    "next_weights",
    "run_cluster",
    "summarize_cluster",
]
