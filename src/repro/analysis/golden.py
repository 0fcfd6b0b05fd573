"""Golden-schedule fingerprinting, as a library.

The determinism guard (``tests/test_golden_schedule.py``) pins SHA-256
digests of the full trace stream and final statistics of every
``golden``-tagged entry of the scenario catalogue
(:mod:`repro.analysis.scenarios`).  This module holds the fingerprint
function and :func:`golden_run`, so other consumers can run the same
entries under varied configuration:

* the watchdog false-positive tests run every entry with the watchdog
  enabled and assert both zero reports *and* fingerprint equality with
  the pinned hashes (observers must be passive);
* the chaos runner (:mod:`repro.analysis.chaos`) re-verifies the pins in
  its faults-off mode, proving the fault-injection seams cost nothing
  when disarmed;
* the exploration tests record and replay every entry through a
  schedule controller and require the pinned hashes both times;
* ``scripts/update_golden_schedule.py`` regenerates the pins after an
  intentional behaviour change, with the :func:`report_digests` of the
  server, cluster and workload reports, which the fingerprint cannot see.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Callable

from repro.analysis.scenarios import Scenario, resolve
from repro.cluster.world import run_cluster
from repro.kernel import Kernel, KernelConfig, msec
from repro.server.model import TenantSpec
from repro.server.world import run_server
from repro.workload.scenarios import workload_spec
from repro.workload.world import run_workload


def default_golden_path() -> Path:
    """``tests/golden/schedule_hashes.json`` at the repository root."""
    return Path(__file__).resolve().parents[3] / "tests" / "golden" / "schedule_hashes.json"


def fingerprint(kernel: Kernel) -> dict:
    """Digest the full trace stream and the statistics of a finished run.

    Note: object ``uid``s (monitors, CVs, channels) are process-global
    counters, so raw uid values depend on what ran earlier in the test
    session.  Fingerprints therefore use set *sizes* and names, never
    uids.
    """
    trace_lines = "\n".join(
        f"{e.time}|{e.category}|{e.kind}|{e.thread}|{e.detail}"
        for e in kernel.tracer.events
    )
    trace_hash = hashlib.sha256(trace_lines.encode()).hexdigest()

    stats = kernel.stats
    scalars = {
        name: value
        for name, value in vars(stats).items()
        if isinstance(value, int)
    }
    canonical = {
        "scalars": dict(sorted(scalars.items())),
        "monitors_used": len(stats.monitors_used),
        "cvs_used": len(stats.cvs_used),
        "exec_intervals": stats.exec_intervals,
        "cpu_by_priority": sorted(stats.cpu_by_priority.items()),
        "thread_log": [
            (r.tid, r.name, r.parent_tid, r.generation, r.priority,
             r.created_at, r.role)
            for r in stats.thread_log
        ],
        "lifetimes": stats.lifetimes,
        "per_thread": [
            (t.tid, t.name, t.priority, t.state.value,
             t.stats.cpu_time, t.stats.dispatches, t.stats.preemptions,
             t.stats.yields, t.stats.monitor_enters, t.stats.monitor_blocks,
             t.stats.cv_waits, t.stats.cv_timeouts,
             t.stats.cv_notifies_received, t.stats.forks_issued)
            for t in kernel.threads.values()
        ],
        "now": kernel.now,
    }
    stats_hash = hashlib.sha256(
        json.dumps(canonical, sort_keys=True, default=str).encode()
    ).hexdigest()
    return {
        "trace": trace_hash,
        "stats": stats_hash,
        "events": len(kernel.tracer.events),
    }


def golden_run(
    scenario: Scenario,
    overrides: dict | None = None,
    probe: "Callable[[Kernel], None] | None" = None,
) -> dict:
    """Run ``scenario`` for its horizon with tracing on and fingerprint it.

    ``overrides`` are extra ``KernelConfig`` fields (watchdog, fault
    plan, schedule controller, ...); ``probe``, if given, is called with
    the kernel after the run but before shutdown, for reading observer
    state (it must not mutate — the fingerprint is taken right after it
    returns).
    """
    kernel, shutdown = scenario.build(
        KernelConfig(**{"seed": 0, "trace": True, **(overrides or {})})
    )
    kernel.run_for(scenario.horizon)
    if probe is not None:
        probe(kernel)
    result = fingerprint(kernel)
    shutdown()
    return result


def load_golden(path: Path | None = None) -> dict:
    path = path or default_golden_path()
    if not path.exists():
        return {}
    return json.loads(path.read_text())


def regenerate_golden(path: Path | None = None) -> dict:
    """Recompute every golden fingerprint and report digest and rewrite
    both pinned files (``report_digests.json`` sits beside ``path``)."""
    path = path or default_golden_path()
    golden: dict[str, Any] = {s.name: golden_run(s) for s in resolve("golden")}
    path.parent.mkdir(parents=True, exist_ok=True)
    for target, pins in (
        (path, golden),
        (path.with_name("report_digests.json"), report_digests()),
    ):
        target.write_text(json.dumps(pins, indent=2, sort_keys=True) + "\n")
    return golden


#: The open-loop mix behind the ``cluster-deadlines`` pin: far past
#: capacity with 30 ms deadlines, so requests expire at the balancer and
#: at the shards.  ``api`` may retry once; ``batch`` may not, so its
#: first expiry at the balancer is a FAILED verdict there.
DEADLINE_TENANTS = (
    TenantSpec(name="api", mode="open", rate_per_sec=6000.0,
               deadline=msec(30), max_retries=1),
    TenantSpec(name="batch", mode="open", rate_per_sec=600.0,
               deadline=msec(30), max_retries=0),
)


def pinned_reports() -> dict[str, Any]:
    """Each pinned report run, 500 ms at seed 0, by pin name.

    The last two exist to reach verdict paths no other pin reaches:
    ``cluster-deadlines`` expires, retries and fails requests at the
    balancer and at the shards, and ``workload-cache-failed-fills``
    narrows the unguarded stampede to one single-worker shard behind a
    two-slot admission queue, so fetches are shed and their parked
    waiters inherit the verdict.
    """
    at = dict(seed=0, duration=msec(500))
    narrow = dataclasses.replace(
        workload_spec("cache-stampede"),
        shards=1, workers_per_shard=1, admission_capacity=2,
    )
    return {
        "server-overload": run_server(scenario="overload", **at),
        "cluster-steady": run_cluster(scenario="steady", **at),
        "cluster-steady-replicas": run_cluster(replicas=True, **at),
        "workload-diurnal": run_workload(scenario="diurnal", **at),
        "workload-cache-stampede": run_workload(
            scenario="cache-stampede", **at
        ),
        "cluster-deadlines": run_cluster(tenants=DEADLINE_TENANTS, **at),
        "workload-cache-failed-fills": run_workload(
            spec=narrow, single_flight=False, **at
        ),
    }


def report_digests() -> dict[str, str]:
    """The ``.digest`` of each :func:`pinned_reports` run."""
    return {name: report.digest for name, report in pinned_reports().items()}
