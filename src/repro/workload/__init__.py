"""Workload generator v2: compiled million-client scenarios.

The compiler simulates open-loop client *populations* as aggregate
non-homogeneous Poisson arrival processes — one timer pump per tenant
class, thinning against a load shape — so a million clients cost
O(arrival events), not O(clients).  Scenarios add heavy-tailed service
costs, slow-client stragglers, retry storms, and (with the cache tier)
reproducible stampedes; every run reports per-tenant SLO attainment.  See ``docs/WORKLOAD.md``.
"""

from repro.workload.compiler import (
    ClientClass,
    ResubmitSink,
    arrival_times,
    install_workload,
)
from repro.workload.scenarios import (
    WORKLOAD_SCENARIOS,
    WorkloadSpec,
    workload_spec,
)
from repro.workload.shapes import (
    Constant,
    Diurnal,
    FlashCrowd,
    LoadShape,
)
from repro.workload.world import (
    WorkloadReport,
    WorkloadWorld,
    build_workload_world,
    run_workload,
    summarize_workload,
)

__all__ = [
    "ClientClass",
    "Constant",
    "Diurnal",
    "FlashCrowd",
    "LoadShape",
    "ResubmitSink",
    "WORKLOAD_SCENARIOS",
    "WorkloadReport",
    "WorkloadSpec",
    "WorkloadWorld",
    "arrival_times",
    "build_workload_world",
    "install_workload",
    "run_workload",
    "summarize_workload",
    "workload_spec",
]
