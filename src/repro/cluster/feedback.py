"""SLO-attainment feedback into WFQ admission weights.

The weighted-fair queue's weights are an operator knob; this module
closes the loop: measure each tenant's SLO attainment from a cluster
run, nudge the weights by a deterministic rule, run again, repeat until
the weights stop moving.  The rule is deliberately an integer hill
climb, not a controller with gains to tune:

* attainment below ``target - deadband``  ->  weight + 1 (capped),
* attainment above ``target + deadband``  ->  weight - 1 (floored at 1),
* inside the deadband  ->  unchanged.

Attainment here is the honest composite the workload reports use:
latency attainment (fraction of completions within the tenant's SLO
target, read straight off the merged histogram) scaled by the
completion rate, so a tenant whose traffic is mostly shed scores low
even if its few completions were fast.  A structurally overloaded
tenant pegs at the cap without starving the rest — WFQ stays
work-conserving, so the interesting converged state is the *relative*
weight vector, which the regression test pins.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.cluster.model import cluster_tenants
from repro.cluster.world import (
    DEFAULT_ADMISSION_CAPACITY,
    DEFAULT_WORKERS_PER_SHARD,
    ClusterReport,
    run_cluster,
)
from repro.kernel.simtime import sec
from repro.server.latency import attainment_from_dict
from repro.server.model import TenantSpec

#: Default attainment target and deadband for the update rule.
TARGET = 0.9
DEADBAND = 0.05

#: Weight bounds: WFQ weights are small positive integers.
MIN_WEIGHT = 1
MAX_WEIGHT = 8


def attainment_by_tenant(
    report: ClusterReport, tenants: tuple[TenantSpec, ...]
) -> dict[str, float]:
    """Composite SLO attainment per tenant from a cluster report."""
    out: dict[str, float] = {}
    for tenant in tenants:
        row = report.merged["tenants"].get(tenant.name)
        if not row:
            out[tenant.name] = 1.0
            continue
        offered = row.get("offered", 0)
        completed = row.get("completed", 0)
        latency_att = attainment_from_dict(row.get("latency"), tenant.slo_us)
        completion = completed / offered if offered else 1.0
        out[tenant.name] = latency_att * completion
    return out


def next_weights(
    weights: dict[str, int],
    attainment: dict[str, float],
    *,
    target: float = TARGET,
    deadband: float = DEADBAND,
) -> dict[str, int]:
    """One deterministic hill-climb step (see module docstring)."""
    out: dict[str, int] = {}
    for name, weight in weights.items():
        att = attainment.get(name, 1.0)
        if att < target - deadband:
            out[name] = min(MAX_WEIGHT, weight + 1)
        elif att > target + deadband:
            out[name] = max(MIN_WEIGHT, weight - 1)
        else:
            out[name] = weight
    return out


@dataclass
class AdaptationResult:
    """The feedback loop's transcript: per-round weights + attainment."""

    scenario: str
    seed: int
    rounds_run: int
    converged: bool
    weights: dict[str, int] = field(default_factory=dict)
    #: One entry per round: {"weights": ..., "attainment": ...}.
    history: list[dict] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "rounds_run": self.rounds_run,
            "converged": self.converged,
            "weights": self.weights,
            "history": self.history,
        }


def adapt_weights(
    *,
    seed: int = 0,
    scenario: str = "skewed",
    rounds: int = 6,
    duration: int = sec(1),
    shards: int = 2,
    workers_per_shard: int = DEFAULT_WORKERS_PER_SHARD,
    policy: str = "p2c",
    admission_capacity: int = DEFAULT_ADMISSION_CAPACITY,
    target: float = TARGET,
    deadband: float = DEADBAND,
) -> AdaptationResult:
    """Run the measure -> nudge -> rerun loop until weights settle.

    Each round is a fresh deterministic cluster run (same seed) with the
    current weight vector substituted into the tenant mix; convergence
    is weight-vector fixpoint, so the whole trajectory is reproducible
    and the converged weights can be pinned by a test.
    """
    base_mix = cluster_tenants(scenario)
    weights = {t.name: t.weight for t in base_mix}
    history: list[dict] = []
    converged = False
    rounds_run = 0
    for _ in range(rounds):
        rounds_run += 1
        mix = tuple(
            replace(t, weight=weights[t.name]) for t in base_mix
        )
        report = run_cluster(
            seed=seed,
            scenario=scenario,
            shards=shards,
            workers_per_shard=workers_per_shard,
            policy=policy,
            admission="wfq",
            admission_capacity=admission_capacity,
            duration=duration,
            tenants=mix,
        )
        attainment = attainment_by_tenant(report, mix)
        history.append(
            {
                "weights": dict(weights),
                "attainment": {
                    name: round(value, 6)
                    for name, value in sorted(attainment.items())
                },
            }
        )
        updated = next_weights(
            weights,
            attainment,
            target=target,
            deadband=deadband,
        )
        if updated == weights:
            converged = True
            break
        weights = updated
    return AdaptationResult(
        scenario=scenario,
        seed=seed,
        rounds_run=rounds_run,
        converged=converged,
        weights=weights,
        history=history,
    )
