"""Assembling and running the server world.

:func:`build_server_world` wires an :class:`RpcServer` plus its traffic
generators onto a :class:`~repro.runtime.pcr.World`; :func:`run_server`
is the one-call entry point used by the CLI, the benchmarks, the golden
scenarios and the chaos sweep — build, run for a fixed sim-time, fold
the statistics into a :class:`ServerReport` whose ``digest`` is the
determinism witness (identical seed and knobs => identical digest).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.config import KernelConfig
from repro.kernel.simtime import sec
from repro.runtime.pcr import World
from repro.server.clients import install_closed_loop, install_open_loop
from repro.server.model import TenantSpec, scenario_tenants
from repro.server.server import RpcServer

#: Default simulated run length: long enough for thousands of requests,
#: many quanta, timeouts, retries and batches; short enough to stay fast.
DEFAULT_DURATION = sec(2)


@dataclass
class ServerReport:
    """One server run, folded down to its SLO story."""

    scenario: str
    seed: int
    policy: str
    workers: int
    admission_capacity: int
    duration: int
    stats: dict = field(default_factory=dict)
    digest: str = ""

    @property
    def completed(self) -> int:
        return self.stats["totals"]["completed"]

    @property
    def throughput_per_sec(self) -> float:
        seconds = self.duration / 1_000_000
        return self.completed / seconds if seconds else 0.0

    @property
    def shed_fraction(self) -> float:
        offered = self.stats["totals"]["offered"]
        return self.stats["totals"]["shed"] / offered if offered else 0.0

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "policy": self.policy,
            "workers": self.workers,
            "admission_capacity": self.admission_capacity,
            "duration_us": self.duration,
            "throughput_per_sec": round(self.throughput_per_sec, 3),
            "shed_fraction": round(self.shed_fraction, 6),
            "digest": self.digest,
            "stats": self.stats,
        }


def build_server_world(
    config: KernelConfig | None = None,
    *,
    scenario: str = "steady",
    workers: int = 4,
    admission_capacity: int = 32,
    tenants: tuple[TenantSpec, ...] | None = None,
) -> tuple[World, RpcServer]:
    """Build the world: server threads forked, generators installed."""
    world = World(config)
    mix = tenants if tenants is not None else scenario_tenants(scenario)
    server = RpcServer(
        world, mix, workers=workers, admission_capacity=admission_capacity
    )
    server.start()
    for tenant in mix:
        if tenant.mode == "open":
            install_open_loop(server, tenant)
        else:
            install_closed_loop(server, tenant)
    return world, server


def run_server(
    *,
    seed: int = 0,
    scenario: str = "steady",
    workers: int = 4,
    policy: str = "strict",
    admission_capacity: int = 32,
    duration: int = DEFAULT_DURATION,
    quantum: int = KernelConfig.quantum,
) -> ServerReport:
    """Run one server experiment and fold it into a report.

    ``quantum`` is the kernel's scheduler quantum, which the quantum
    sweep in ``benchmarks/bench_server.py`` varies.
    """
    config = KernelConfig(
        seed=seed, scheduler_policy=policy, quantum=quantum
    )
    world, server = build_server_world(
        config,
        scenario=scenario,
        workers=workers,
        admission_capacity=admission_capacity,
    )
    world.run_for(duration)
    report = ServerReport(
        scenario=scenario,
        seed=seed,
        policy=policy,
        workers=workers,
        admission_capacity=admission_capacity,
        duration=duration,
        stats=server.stats.to_dict(),
        digest=server.stats.digest(),
    )
    world.shutdown()
    return report
