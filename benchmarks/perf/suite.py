"""The four benchmark workloads, one *pass* each.

A pass is a fixed amount of seeded work: the same seed gives the same
inputs, the same simulated statistics and the same digest, every time.
The runner repeats passes for the measured seconds and reports medians
of host time, while every pass's digest must equal the first one.

Each pass calls the simulator only through public entry points (world
builders, ``World.run_for``, ``summarize_*``, ``run_schedule``) and
wraps each call in a span named ``build``, ``run``, ``fold`` or
``check``.  After the run it reads exact counters off public state —
``kernel.stats``, ``kernel.memory``, the workload report — and checks
the outputs.

``paper-tables``
    All 8 Cedar and 4 GVX activities of Tables 1-3, each on a fresh
    world: 3 s warm-up, then the 10 s window ``dynamic.measure`` uses.
    The paper's own workload; only the kernel, sync, runtime and
    workloads layers run.
``cache-stampede``
    The pinned stampede spec (single-flight on, 880k clients) for 4
    simulated seconds: the cache tier in front of the 2-shard cluster.
``diurnal``
    The pinned golden diurnal spec (350k clients, heavy tails,
    stragglers, no cache) for 6 simulated seconds.
``litmus``
    SB, MP and LB under sc/tso/pso searched to exhaustion, plus seeded
    1000-schedule random walks of IRIW under each model.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.dynamic import PAPER_ROWS
from repro.explore.driver import run_schedule
from repro.explore.strategies import make_strategy
from repro.kernel.config import KernelConfig
from repro.kernel.simtime import sec
from repro.memmodel.litmus import LITMUS_TESTS, MODELS, litmus_scenario
from repro.server.latency import LatencyHistogram
from repro.workload.scenarios import workload_spec
from repro.workload.world import build_workload_world, summarize_workload
from repro.workloads.base import ActivityResult
from repro.workloads.cedar import CEDAR_ACTIVITIES, build_cedar_world
from repro.workloads.gvx import GVX_ACTIVITIES, build_gvx_world

from profiler import Spans

PAPER_WARMUP = sec(3)
PAPER_WINDOW = sec(10)
SYSTEMS = {
    "Cedar": (build_cedar_world, CEDAR_ACTIVITIES),
    "GVX": (build_gvx_world, GVX_ACTIVITIES),
}
#: The Table 1-2 columns ``paper_rate_err`` compares.
RATE_COLUMNS = (
    "forks_per_sec", "switches_per_sec", "waits_per_sec",
    "timeout_fraction", "ml_enters_per_sec",
)

CLUSTER_DURATION = {"cache-stampede": sec(4), "diurnal": sec(6)}

#: (test, model, strategy, budget): complete trees, then sampled IRIW.
LITMUS_PLAN = tuple(
    (test, model, "exhaustive", 30_000)
    for test in ("sb", "mp", "lb")
    for model in MODELS
) + tuple(("iriw", model, "random", 1000) for model in MODELS)


@dataclass
class PassResult:
    """What one pass produced."""

    digest: str
    #: Operations attempted and failed (see each workload's docstring).
    attempted: int
    failed: int
    #: Exact per-layer counters and simulated metrics.
    counters: Counter = field(default_factory=Counter)
    #: Failed correctness checks, one line each.
    problems: list[str] = field(default_factory=list)


def _digest(payload) -> str:
    return hashlib.sha256(
        json.dumps(payload, sort_keys=True, default=str).encode()
    ).hexdigest()


def tally_kernel(counters: Counter, kernel) -> None:
    """Add one finished kernel's exact counters."""
    stats, memory = kernel.stats, kernel.memory
    counters["kernel.dispatches"] += stats.dispatches
    counters["kernel.switches"] += stats.switches
    counters["kernel.preemptions"] += stats.preemptions
    counters["kernel.ticks"] += stats.ticks
    counters["kernel.forks"] += stats.forks
    counters["sync.ml_enters"] += stats.ml_enters
    counters["sync.ml_contended"] += stats.ml_contended
    counters["sync.cv_waits"] += stats.cv_waits
    counters["sync.cv_timeouts"] += stats.cv_timeouts
    counters["memmodel.stores"] += memory.stores
    counters["memmodel.loads"] += memory.loads
    counters["memmodel.fences"] += memory.fences
    counters["memmodel.drain_decisions"] += getattr(
        memory, "drain_decisions", 0
    )


def check_shutdown(kernel, label: str) -> list[str]:
    """A shut-down kernel holds no live threads and no stack space."""
    stats = kernel.stats
    problems = []
    if stats.live_threads != 0:
        problems.append(f"{label}: live_threads={stats.live_threads}")
    if stats.stack_bytes != 0:
        problems.append(f"{label}: stack_bytes={stats.stack_bytes}")
    return problems


# -- paper-tables -------------------------------------------------------------


def measure_activity(
    system: str,
    activity: str,
    *,
    seed: int,
    spans: Spans,
    counters: Counter,
    problems: list[str],
    window: int = PAPER_WINDOW,
) -> ActivityResult:
    """``run_activity``'s build -> run -> fold, one span per step."""
    build_world, activities = SYSTEMS[system]
    with spans.span("build"):
        world, context = build_world(KernelConfig(seed=seed))
        install = activities[activity]
        if install is not None:
            install(world, context)
    with spans.span("run"):
        world.run_for(PAPER_WARMUP)
        world.begin_measurement()
        world.run_for(window)
    with spans.span("fold"):
        stats = world.end_measurement()
        result = ActivityResult(
            system=system,
            activity=activity,
            duration=stats.duration,
            forks_per_sec=stats.rate("forks"),
            switches_per_sec=stats.rate("switches"),
            waits_per_sec=stats.rate("cv_waits"),
            timeout_fraction=stats.fraction("cv_timeouts", "cv_waits"),
            ml_enters_per_sec=stats.rate("ml_enters"),
            contention_fraction=stats.fraction("ml_contended", "ml_enters"),
            distinct_cvs=stats.counts["cvs_used"],
            distinct_mls=stats.counts["monitors_used"],
            max_live_threads=world.kernel.stats.max_live_threads,
        )
    with spans.span("check"):
        world.shutdown()
        tally_kernel(counters, world.kernel)
        problems.extend(
            check_shutdown(world.kernel, f"{system}/{activity}")
        )
    return result


def paper_rate_err(results: list[ActivityResult]) -> float:
    """Median relative error over the non-zero Table 1-2 rate cells."""
    errors = []
    for result in results:
        paper = PAPER_ROWS[(result.system, result.activity)]
        for column in RATE_COLUMNS:
            expected = getattr(paper, column)
            if expected:
                measured = getattr(result, column)
                errors.append(abs(measured - expected) / expected)
    return statistics.median(errors)


def paper_tables(seed: int, spans: Spans) -> PassResult:
    """Operations are the 12 activity runs; one fails when its kernel
    does not shut down clean."""
    counters: Counter = Counter()
    results = []
    failed = 0
    problems: list[str] = []
    for system, (_, activities) in SYSTEMS.items():
        for activity in activities:
            before = len(problems)
            results.append(
                measure_activity(
                    system, activity, seed=seed, spans=spans,
                    counters=counters, problems=problems,
                )
            )
            failed += len(problems) > before
    with spans.span("check"):
        counters["workloads.paper_rate_err"] = paper_rate_err(results)
        counters["sim_seconds"] = sum(
            (PAPER_WARMUP + r.duration) / 1e6 for r in results
        )
        rows = [dataclasses.astuple(r)[:-1] for r in results]  # no extras
        digest = _digest({"rows": rows, "counters": counters})
    return PassResult(digest, len(results), failed, counters, problems)


# -- cache-stampede and diurnal -----------------------------------------------


def merged_latency(rows: dict) -> LatencyHistogram:
    """Client-facing latency merged across tenants."""
    merged = LatencyHistogram()
    for row in rows.values():
        latency = row.get("latency")
        if not latency:
            continue
        part = LatencyHistogram()
        for bucket, count in latency["buckets"].items():
            part.counts[int(bucket)] = count
        part.total, part.sum = latency["total"], latency["sum"]
        part.min, part.max = latency["min"], latency["max"]
        merged.merge(part)
    return merged


def tail_quantile(samples: int) -> float:
    """The highest reported percentile with at least ten samples beyond
    it."""
    for quantile in (0.999, 0.99, 0.95):
        if samples * (1 - quantile) >= 10:
            return quantile
    return 0.5


def build_cluster(scenario: str, seed: int):
    """The pinned spec's world, configured as ``run_workload`` does."""
    spec = workload_spec(scenario)
    config = KernelConfig(
        seed=seed, ncpus=spec.shards + (1 if spec.cache else 0)
    )
    return build_workload_world(config, spec=spec)


def cluster_pass(scenario: str, seed: int, spans: Spans) -> PassResult:
    """Operations are client requests offered; one fails when the
    cluster answers it ``failed`` or loses it in flight.  Sheds are
    admission decisions, not failures: they count as SLO misses in
    ``workload.slo_attainment``."""
    duration = CLUSTER_DURATION[scenario]
    with spans.span("build"):
        ww = build_cluster(scenario, seed)
    with spans.span("run"):
        ww.world.run_for(duration)
    with spans.span("fold"):
        report = summarize_workload(ww, seed=seed, duration=duration)
    counters: Counter = Counter()
    problems: list[str] = []
    with spans.span("check"):
        lost = sum(ww.balancer.lost_inflight)
        if lost:
            problems.append(f"balancer lost {lost} in-flight requests")
        for name, row in report.tenants.items():
            ended = row["completed"] + row["shed"] + row["failed"]
            if ended > row["offered"]:
                problems.append(
                    f"tenant {name}: completed+shed+failed {ended} > "
                    f"offered {row['offered']}"
                )
            if row["give_ups"] > row["shed"]:
                problems.append(
                    f"tenant {name}: give_ups {row['give_ups']} > "
                    f"shed {row['shed']}"
                )
        ww.world.shutdown()
        kernel = ww.world.kernel
        tally_kernel(counters, kernel)
        problems.extend(check_shutdown(kernel, scenario))

        totals = report.totals
        backend = report.cluster["totals"]
        for kind in ("admitted", "shed", "rerouted", "timeouts", "completed"):
            counters[f"cluster.{kind}"] = backend[kind]
        counters["server.coalesced"] = backend["coalesced"]
        cache = report.cache or {}
        for name in (
            "hits", "misses", "hit_rate", "coalesced_waits", "fetches",
            "amplification",
        ):
            counters[f"cache.{name}"] = cache.get(name, 0)
        counters["workload.offered"] = totals["offered"]
        counters["workload.resubmitted"] = sum(
            sink["resubmitted"] for sink in report.sinks.values()
        )
        counters["workload.give_ups"] = totals["give_ups"]
        latency = merged_latency(report.tenants)
        quantile = tail_quantile(latency.total)
        counters["workload.latency_samples"] = latency.total
        counters["workload.sim_p50_ms"] = latency.percentile(0.5) / 1000
        counters["workload.sim_tail_q"] = quantile
        counters["workload.sim_tail_ms"] = latency.percentile(quantile) / 1000
        counters["workload.slo_attainment"] = min(report.attainment.values())
        counters["sim_seconds"] = duration / 1e6
    failed = totals["failed"] + lost
    return PassResult(
        report.digest, totals["offered"], failed, counters, problems
    )


# -- litmus -------------------------------------------------------------------


def litmus(seed: int, spans: Spans) -> PassResult:
    """Operations are schedules; one fails when it trips the invariant
    harness or reaches an outcome outside the pinned table."""
    counters: Counter = Counter()
    problems: list[str] = []
    summary = []
    schedules = decisions = failed = 0
    last_kernel = []

    for test, model, strategy, budget in LITMUS_PLAN:
        scenario, state = litmus_scenario(test, model)

        def build(config, _build=scenario.build):
            with spans.span("build"):
                kernel, shutdown = _build(config)
            last_kernel[:] = [kernel]
            return kernel, shutdown

        timed = dataclasses.replace(scenario, build=build)
        search = make_strategy(strategy, seed=seed)
        reached: set = set()
        prints = hashlib.sha256()
        runs = 0
        for index in range(budget):
            if search.exhausted:
                break
            with spans.span("fold"):
                controller = search.controller(index)
            with spans.span("run"):
                outcome = run_schedule(
                    timed, controller,
                    seed=search.kernel_seed(index, seed), index=index,
                )
            with spans.span("fold"):
                search.observe(outcome.trace)
            with spans.span("check"):
                runs += 1
                decisions += len(outcome.trace)
                tally_kernel(counters, last_kernel[0])
                prints.update(outcome.fingerprint["stats"].encode())
                registers = state.get("outcome")
                if outcome.failed:
                    failed += 1
                    problems.append(
                        f"{test}/{model}[{index}]: {outcome.violation} "
                        f"{outcome.harness_failures}"
                    )
                else:
                    reached.add(registers)
        with spans.span("check"):
            schedules += runs
            expected = LITMUS_TESTS[test].expected[model]
            if strategy == "exhaustive":
                if not search.exhausted:
                    problems.append(f"{test}/{model}: tree not exhausted")
                elif reached != expected:
                    problems.append(
                        f"{test}/{model}: reached {sorted(reached)} != "
                        f"pinned {sorted(expected)}"
                    )
            elif not reached <= expected:
                problems.append(
                    f"{test}/{model}: reached {sorted(reached - expected)} "
                    "outside the pinned table"
                )
            summary.append(
                (test, model, runs, sorted(reached), prints.hexdigest())
            )
    counters["explore.schedules"] = schedules
    counters["explore.decisions"] = decisions
    counters["explore.decisions_per_schedule"] = decisions / schedules
    return PassResult(_digest(summary), schedules, failed, counters, problems)


# -- set-up only --------------------------------------------------------------


def setup_paper_tables(seed: int) -> None:
    for build_world, activities in SYSTEMS.values():
        for install in activities.values():
            world, context = build_world(KernelConfig(seed=seed))
            if install is not None:
                install(world, context)
            world.shutdown()


def setup_cluster(scenario: str, seed: int) -> None:
    build_cluster(scenario, seed).world.shutdown()


def setup_litmus(seed: int) -> None:
    for test, model, _, _ in LITMUS_PLAN:
        scenario, _ = litmus_scenario(test, model)
        _, shutdown = scenario.build(KernelConfig(seed=seed))
        shutdown()


@dataclass(frozen=True)
class Workload:
    """One pass of seeded work, and the set-up it needs."""

    run: Callable[[int, Spans], PassResult]
    setup: Callable[[int], None]


WORKLOADS: dict[str, Workload] = {
    "paper-tables": Workload(paper_tables, setup_paper_tables),
    "cache-stampede": Workload(
        lambda seed, spans: cluster_pass("cache-stampede", seed, spans),
        lambda seed: setup_cluster("cache-stampede", seed),
    ),
    "diurnal": Workload(
        lambda seed, spans: cluster_pass("diurnal", seed, spans),
        lambda seed: setup_cluster("diurnal", seed),
    ),
    "litmus": Workload(litmus, setup_litmus),
}
