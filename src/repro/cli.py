"""Command-line interface: ``python -m repro <command>``.

Each command regenerates one of the paper's artifacts and prints the
paper-vs-measured comparison — the same code paths the benchmarks use,
packaged for interactive exploration.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable


def _cmd_tables(args: argparse.Namespace) -> None:
    from repro.analysis import dynamic
    from repro.analysis.report import format_table

    systems = [args.system] if args.system else ["Cedar", "GVX"]
    for system in systems:
        results = dynamic.measure_all(system, seed=args.seed)
        rows = []
        for result in results:
            paper = dynamic.paper_row(system, result.activity)
            rows.append(
                [
                    result.activity,
                    f"{paper.forks_per_sec:g}/{result.forks_per_sec:.1f}",
                    f"{paper.switches_per_sec:g}/{result.switches_per_sec:.0f}",
                    f"{paper.waits_per_sec:g}/{result.waits_per_sec:.0f}",
                    f"{100 * paper.timeout_fraction:.0f}/{100 * result.timeout_fraction:.0f}",
                    f"{paper.ml_enters_per_sec:g}/{result.ml_enters_per_sec:.0f}",
                    f"{paper.distinct_cvs}/{result.distinct_cvs}",
                    f"{paper.distinct_mls}/{result.distinct_mls}",
                ]
            )
        print(
            format_table(
                f"{system}: Tables 1-3 (paper/measured)",
                ["activity", "forks/s", "switch/s", "waits/s", "tmo%",
                 "ML/s", "#CVs", "#MLs"],
                rows,
            )
        )
        print()


def _cmd_census(args: argparse.Namespace) -> None:
    from repro.analysis.classifier import accuracy, census
    from repro.analysis.report import format_table
    from repro.corpus import cedar_corpus, gvx_corpus
    from repro.corpus.model import PAPER_TABLE4, PARADIGMS

    for name, corpus in (
        ("Cedar", cedar_corpus(args.seed)), ("GVX", gvx_corpus(args.seed))
    ):
        result = census(corpus, name)
        rows = [
            [paradigm, PAPER_TABLE4[name][paradigm], result.counts[paradigm]]
            for paradigm in PARADIGMS
        ]
        print(
            format_table(
                f"Table 4 ({name}), accuracy {accuracy(corpus):.1%}",
                ["paradigm", "paper", "recovered"],
                rows,
            )
        )
        print()


def _cmd_ybntm(args: argparse.Namespace) -> None:
    from repro.casestudies.ybntm import run_comparison

    comparison = run_comparison(seed=args.seed)
    plain, fixed = comparison.plain_yield, comparison.ybntm
    print("plain YIELD     :", plain.flushes, "flushes, batch",
          f"{plain.mean_batch:.1f}, server {plain.server_busy / 1000:.1f} ms")
    print("YieldButNotToMe :", fixed.flushes, "flushes, batch",
          f"{fixed.mean_batch:.1f}, server {fixed.server_busy / 1000:.1f} ms")
    print(f"server-work reduction: {comparison.server_work_reduction:.2f}x "
          "(paper: 'about a three-fold performance improvement')")


def _cmd_quantum(args: argparse.Namespace) -> None:
    from repro.casestudies.quantum import sweep_quantum

    for strategy in ("ybntm", "sleep"):
        sweep = sweep_quantum(strategy, seed=args.seed)
        print(f"strategy={strategy}")
        for quantum, result in sweep.results.items():
            print(f"  quantum {quantum / 1000:>6g} ms: "
                  f"echo {result.mean_latency / 1000:>6.1f} ms, "
                  f"batch {result.mean_batch:.2f}, "
                  f"{result.flushes} flushes")


def _cmd_spurious(args: argparse.Namespace) -> None:
    from repro.casestudies.spurious import run_comparison

    for semantics, result in run_comparison(seed=args.seed).items():
        print(f"{semantics:<10} spurious={result.spurious_conflicts:<4} "
              f"switches={result.switches}")


def _cmd_inversion(args: argparse.Namespace) -> None:
    from repro.casestudies.inversion import run_all_variants

    for variant, result in run_all_variants(seed=args.seed).items():
        outcome = (
            "starved" if result.blocked_for is None
            else f"unblocked after {result.blocked_for / 1000:.0f} ms"
        )
        print(f"{variant:<20} {outcome}")


def _cmd_xclients(args: argparse.Namespace) -> None:
    from repro.casestudies.xclients import run_comparison

    for library, result in run_comparison(seed=args.seed).items():
        print(f"{library:<6} flushes={result.flushes:<3} "
              f"shipped={result.requests_shipped:<3} "
              f"contention-blocks={result.lock_contention_blocks:<3} "
              f"painted-at={result.painting_done_at / 1000:.0f}ms")


def _cmd_weakmem(args: argparse.Namespace) -> None:
    from repro.casestudies.weakmem import run_init_once, run_publication

    for model, monitored in (("sc", False), ("pso", False), ("pso", True)):
        result = run_publication(model=model, monitored=monitored,
                                 seed=args.seed)
        label = f"{model}{'+monitor' if monitored else ''}"
        print(f"publication {label:<14} torn reads: "
              f"{result.torn_reads}/{result.reads}")
    hazards = sum(run_init_once(model="pso", seed=s).saw_uninitialised
                  for s in range(20))
    print(f"init-once under pso: hazard in {hazards}/20 seeds")


def _cmd_races(args: argparse.Namespace) -> None:
    """Run the §5.5 hazards and both workloads under the race detector."""
    from repro.analysis.report import format_table
    from repro.casestudies.spurious import run_producer_consumer
    from repro.casestudies.weakmem import run_init_once, run_publication
    from repro.kernel.config import KernelConfig
    from repro.kernel.simtime import sec
    from repro.workloads import SYSTEMS

    rows = []
    detailed = []

    def add(label, races, lockset_only):
        rows.append([label, len(races), len(lockset_only),
                     "RACY" if races else "clean"])
        detailed.extend(races)

    for monitored in (False, True):
        result = run_publication(model="pso", monitored=monitored,
                                 seed=args.seed, race_detection=True)
        races = [r for r in result.race_reports if r.hb_race]
        benign = [r for r in result.race_reports if not r.hb_race]
        add(f"publication pso{'+monitor' if monitored else ''}", races, benign)

    for fenced in (False, True):
        result = run_init_once(model="pso", fenced=fenced,
                               seed=args.seed, race_detection=True)
        races = [r for r in result.race_reports if r.hb_race]
        benign = [r for r in result.race_reports if not r.hb_race]
        add(f"init-once pso{'+fence' if fenced else ''}", races, benign)

    result = run_producer_consumer(notify_semantics="deferred",
                                   seed=args.seed, race_detection=True)
    races = [r for r in result.race_reports if r.hb_race]
    benign = [r for r in result.race_reports if not r.hb_race]
    add("producer/consumer (monitored)", races, benign)

    for label, (builder, _activities) in SYSTEMS.items():
        world, _context = builder(
            KernelConfig(seed=args.seed, race_detection=True)
        )
        world.run_for(sec(2))
        detector = world.kernel.race_detector
        add(f"{label} world (2 s)", detector.races, detector.lockset_only)
        world.shutdown()

    print(format_table(
        "Race detector (Eraser lockset + happens-before)",
        ["workload", "races", "lockset-only", "verdict"],
        rows,
    ))
    if detailed:
        print()
        for report in detailed[:8]:
            print(report.describe())
        if len(detailed) > 8:
            print(f"... and {len(detailed) - 8} more")


def _cmd_adaptive(args: argparse.Namespace) -> None:
    from repro.extensions.adaptive_timeout import run_generations

    for generation, pair in run_generations().items():
        for policy, result in pair.items():
            detect = (result.crash_detection_time or 0) / 1000
            print(f"{generation:<9} {policy:<9} "
                  f"spurious={result.spurious_timeouts:<3} "
                  f"crash-detect={detect:.0f}ms "
                  f"final-timeout={result.final_timeout / 1000:.0f}ms")


def _cmd_fairshare(args: argparse.Namespace) -> None:
    from repro.extensions.fair_share import run_tradeoff

    for policy, stats in run_tradeoff().items():
        acquired = stats["inversion_acquired_at"]
        inversion = ("starved" if acquired is None
                     else f"{acquired / 1000:.0f} ms")
        print(f"{policy:<11} inversion={inversion:<10} "
              f"echo mean={stats['echo_mean'] / 1000:.2f} ms "
              f"max={stats['echo_max'] / 1000:.2f} ms")


def _cmd_chaos(args: argparse.Namespace) -> None:
    """Seeded fault-injection sweep with the waits-for watchdog on."""
    import os

    from repro.analysis.chaos import run_sweep, write_report

    report = run_sweep(
        seed=args.seed,
        runs=args.runs,
        check_golden=not args.skip_golden,
        progress=print,
        # With an output path, failing runs save their decision traces
        # next to the report for ``repro explore --replay``.
        trace_dir=os.path.dirname(os.path.abspath(args.output))
        if args.output else None,
        scenarios=args.scenario,
    )
    summary = report["summary"]
    print(
        f"\n{summary['total']} runs, {summary['faults_injected']} faults "
        f"injected, {summary['deadlocks_detected']} partial deadlocks "
        f"detected, {summary['failed']} invariant failures"
    )
    if not args.skip_golden:
        golden = report["golden"]
        verdict = "match" if golden["ok"] else f"DIVERGED: {golden['mismatches']}"
        print(f"faults-off golden hashes ({golden['scenarios']} scenarios): "
              f"{verdict}")
    if args.output:
        write_report(report, args.output)
        print(f"wrote report to {args.output}")
    if not report["ok"]:
        raise SystemExit(1)


def _replay(trace, seed: int) -> bool:
    """Replay a saved decision trace through the scenario catalogue and
    print it.  True when the replayed decisions match the saved ones and
    the saved failure (if any) reproduces."""
    from repro.analysis.chaos import chaos_entry, chaos_failures
    from repro.analysis.faults import FaultPlan
    from repro.analysis.scenarios import SCENARIOS
    from repro.explore import replay

    meta = trace.meta
    scenario = SCENARIOS.get(meta.get("scenario", ""))
    if scenario is None:
        print(f"trace names unknown scenario {meta.get('scenario')!r}",
              file=sys.stderr)
        raise SystemExit(1)
    seed = int(meta.get("seed", seed))
    # A failing chaos run saved its plan: rerun the entry the way chaos ran it.
    from_chaos = "failures" in meta
    if from_chaos:
        scenario = chaos_entry(scenario, FaultPlan(
            **meta["plan"], kill_immune=tuple(meta.get("kill_immune", ()))
        ))
    outcome = replay(scenario, trace.choices, seed=seed)
    if from_chaos:
        found = chaos_failures(scenario, outcome)
        reproduced = bool(set(found) & set(meta["failures"]))
    else:
        found = [outcome.violation] if outcome.violation else []
        reproduced = bool(found) or not meta.get("violation")
    print(outcome.trace.render())
    for failure in found:
        print(f"violation: {failure}")
    divergence = trace.divergence(outcome.trace)
    if divergence is not None:
        print(f"REPLAY DIVERGED: {divergence}")
    if not reproduced:
        print("REPLAY DID NOT REPRODUCE the recorded failure")
    return divergence is None and reproduced


def _cmd_explore(args: argparse.Namespace) -> None:
    """Systematic schedule exploration with counterexample minimization."""
    import json
    import os

    from repro.analysis.scenarios import resolve
    from repro.explore import DecisionTrace, explore, make_strategy

    if args.replay:
        trace = DecisionTrace.load(args.replay)
        if not _replay(trace, args.seed):
            raise SystemExit(1)
        print(f"replay ok ({len(trace)} decisions verified)")
        return

    results = []
    all_ok = True
    for scenario in resolve(args.scenario):
        strategy = make_strategy(args.strategy, seed=args.seed)
        result = explore(
            scenario, strategy, budget=args.budget, seed=args.seed,
            progress=print,
        )
        entry = result.to_dict()
        if result.minimized is not None and args.output:
            minimized = result.minimized
            trace = minimized.outcome.trace
            trace.meta.update(
                scenario=scenario.name,
                seed=minimized.seed,
                violation=minimized.violation,
            )
            out_dir = os.path.dirname(os.path.abspath(args.output))
            path = os.path.join(
                out_dir, f"explore-{scenario.name}.trace.json"
            )
            trace.save(path)
            entry["trace_path"] = path
            print(f"{scenario.name}: minimal trace -> {path}")
        results.append(entry)
        all_ok = all_ok and result.ok
    report = {
        "seed": args.seed,
        "strategy": args.strategy,
        "budget": args.budget,
        "scenarios": results,
        "ok": all_ok,
    }
    found = sum(1 for r in results if "found_at" in r)
    print(f"\n{len(results)} scenarios explored, {found} violations found "
          f"and minimized: {'ok' if all_ok else 'FAILED'}")
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.output}")
    if not all_ok:
        raise SystemExit(1)


def _cmd_litmus(args: argparse.Namespace) -> None:
    """Enumerate litmus-test outcomes per memory model (Section 5.5)."""
    import json
    import os

    from repro.memmodel.litmus import (
        LITMUS_TESTS,
        MODELS,
        default_plan,
        enumerate_litmus,
        litmus_scenario,
    )

    if args.replay:
        from repro.explore import DecisionTrace

        trace = DecisionTrace.load(args.replay)
        test_name = trace.meta.get("test", "")
        model = trace.meta.get("model", "")
        if test_name not in LITMUS_TESTS or model not in MODELS:
            print(f"trace names unknown litmus pair {test_name!r}/{model!r}",
                  file=sys.stderr)
            raise SystemExit(1)
        _scenario, state = litmus_scenario(test_name, model)
        ok = _replay(trace, args.seed)
        registers = state.get("outcome")
        print(f"litmus {test_name}/{model} outcome: {registers}")
        recorded = trace.meta.get("outcome")
        if recorded is not None and tuple(recorded) != registers:
            print(f"REPLAY DID NOT REPRODUCE the recorded outcome "
                  f"{tuple(recorded)}")
            ok = False
        if not ok:
            raise SystemExit(1)
        print(f"replay ok ({len(trace)} decisions verified)")
        return

    tests = (list(LITMUS_TESTS) if args.test == "all"
             else [part.strip() for part in args.test.split(",") if part.strip()])
    models = (list(MODELS) if args.model == "all"
              else [part.strip() for part in args.model.split(",") if part.strip()])
    unknown = [t for t in tests if t not in LITMUS_TESTS]
    unknown += [m for m in models if m not in MODELS]
    if unknown or not tests or not models:
        problem = (f"unknown test/model selector(s): {unknown}" if unknown
                   else "empty test/model selection")
        print(f"{problem}; tests: {sorted(LITMUS_TESTS)}, models: "
              f"{list(MODELS)}", file=sys.stderr)
        raise SystemExit(1)

    pairs = []
    all_ok = True
    for test_name in tests:
        test = LITMUS_TESTS[test_name]
        for model in models:
            strategy, budget = default_plan(test_name, model)
            if args.strategy:
                strategy = args.strategy
            if args.budget:
                budget = args.budget
            result = enumerate_litmus(
                test_name, model, strategy=strategy, budget=budget,
                seed=args.seed,
            )
            sound = not result.forbidden and not result.harness_failures
            complete = result.reached == result.expected
            entry = result.to_dict()
            entry["complete"] = complete
            coverage = ("exhausted" if result.exhausted
                        else f"sampled {result.runs}")
            relaxed = sorted(test.relaxed_outcomes(model) & result.reached)
            beyond = (f"  beyond-SC: {relaxed}" if relaxed else "")
            verdict = ("ok" if sound and complete else
                       "UNSOUND" if not sound else "INCOMPLETE")
            print(f"{test_name:>5}/{model:<4} {strategy:>10} "
                  f"({coverage:>14})  reached {len(result.reached):>2}"
                  f"/{len(result.expected):>2} pinned outcomes"
                  f"{beyond}  -> {verdict}")
            if not sound:
                for registers, violation in result.forbidden:
                    print(f"       forbidden outcome {registers}: {violation}")
            if not complete:
                print(f"       missing: {sorted(result.expected - result.reached)}")
            if args.trace_dir:
                os.makedirs(args.trace_dir, exist_ok=True)
                saved = []
                for registers in relaxed:
                    witness = result.witnesses[registers]
                    witness.trace.meta.update(
                        scenario=f"litmus-{test_name}-{model}",
                        test=test_name,
                        model=model,
                        outcome=list(registers),
                        seed=witness.seed,
                    )
                    tag = "".join(str(bit) for bit in registers)
                    path = os.path.join(
                        args.trace_dir,
                        f"litmus-{test_name}-{model}-{tag}.trace.json",
                    )
                    witness.trace.save(path)
                    saved.append(path)
                    print(f"       witness {registers} -> {path}")
                entry["witness_paths"] = saved
            pairs.append(entry)
            all_ok = all_ok and sound and complete
    print(f"\n{len(pairs)} litmus pairs: "
          f"{'all reachable sets match the pins' if all_ok else 'FAILED'}")
    if args.output:
        report = {"seed": args.seed, "pairs": pairs, "ok": all_ok}
        with open(args.output, "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote report to {args.output}")
    if not all_ok:
        raise SystemExit(1)


def _cmd_serve(args: argparse.Namespace) -> None:
    """Run the multi-tenant RPC server world and print the SLO report."""
    import json

    from repro.analysis.report import format_server_report
    from repro.kernel.simtime import msec
    from repro.server.world import run_server

    report = run_server(
        seed=args.seed,
        scenario=args.scenario,
        workers=args.workers,
        policy=args.policy,
        admission_capacity=args.capacity,
        duration=msec(args.duration_ms),
    )
    print(format_server_report(report.to_dict()))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote JSON report to {args.output}")


def _cmd_cluster(args: argparse.Namespace) -> None:
    """Run the sharded cluster world and print the SLO rollup."""
    import json

    from repro.analysis.report import format_cluster_report
    from repro.cluster.world import run_cluster
    from repro.kernel.simtime import msec

    if args.adapt_weights:
        from repro.cluster.feedback import adapt_weights

        result = adapt_weights(
            seed=args.seed,
            scenario=args.scenario,
            rounds=args.adapt_weights,
            duration=msec(args.duration_ms),
            shards=args.shards,
            workers_per_shard=args.workers_per_shard,
            policy=args.policy,
            admission_capacity=args.capacity,
        )
        for index, entry in enumerate(result.history):
            weights = " ".join(
                f"{name}={w}" for name, w in sorted(entry["weights"].items())
            )
            attainment = " ".join(
                f"{name}={value:.3f}"
                for name, value in entry["attainment"].items()
            )
            print(f"round {index}: weights [{weights}]  "
                  f"attainment [{attainment}]")
        final = " ".join(
            f"{name}={w}" for name, w in sorted(result.weights.items())
        )
        verdict = "converged" if result.converged else "did NOT converge"
        print(f"{verdict} after {result.rounds_run} rounds: [{final}]")
        if args.output:
            with open(args.output, "w") as fh:
                json.dump(result.to_dict(), fh, indent=2, sort_keys=True)
            print(f"wrote JSON report to {args.output}")
        return

    report = run_cluster(
        seed=args.seed,
        scenario=args.scenario,
        shards=args.shards,
        workers_per_shard=args.workers_per_shard,
        policy=args.policy,
        admission=args.admission,
        admission_capacity=args.capacity,
        duration=msec(args.duration_ms),
        replicas=args.replicas,
    )
    print(format_cluster_report(report.to_dict()))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote JSON report to {args.output}")


def _cmd_workload(args: argparse.Namespace) -> None:
    """Compile and run a million-client workload scenario."""
    import json

    from repro.analysis.report import format_workload_report
    from repro.kernel.simtime import msec
    from repro.workload import run_workload

    report = run_workload(
        seed=args.seed,
        scenario=args.scenario,
        single_flight=False if args.no_single_flight else None,
        duration=msec(args.duration_ms),
    )
    print(format_workload_report(report.to_dict()))
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
        print(f"wrote JSON report to {args.output}")


def _cmd_trace(args: argparse.Namespace) -> None:
    """Run an idle Cedar world with tracing on and export artifacts."""
    from repro.analysis.chrome_trace import write_chrome_trace
    from repro.analysis.timeline import render_history
    from repro.kernel.config import KernelConfig
    from repro.kernel.simtime import msec, sec
    from repro.workloads.cedar import build_cedar_world

    config = KernelConfig(seed=args.seed, trace=True)
    world, _context = build_cedar_world(config)
    world.run_for(sec(2))
    print(render_history(world.kernel.tracer, start=sec(1),
                         end=sec(1) + msec(100)))
    if args.output:
        count = write_chrome_trace(world.kernel.tracer, args.output)
        print(f"\nwrote {count} Chrome trace events to {args.output} "
              "(open in chrome://tracing or ui.perfetto.dev)")
    world.shutdown()


_COMMANDS: dict[str, tuple[Callable, str]] = {
    "tables": (_cmd_tables, "regenerate Tables 1-3 (dynamic statistics)"),
    "census": (_cmd_census, "regenerate Table 4 (static paradigm census)"),
    "ybntm": (_cmd_ybntm, "the §5.2 YieldButNotToMe case study"),
    "quantum": (_cmd_quantum, "the §6.3 scheduler-quantum sweep"),
    "spurious": (_cmd_spurious, "the §6.1 spurious-lock-conflict study"),
    "inversion": (_cmd_inversion, "the §6.2 priority-inversion study"),
    "xclients": (_cmd_xclients, "the §5.6 Xlib-vs-Xl comparison"),
    "weakmem": (_cmd_weakmem, "the §5.5 weak-memory hazards"),
    "races": (_cmd_races, "dynamic race detection over the §5.5 hazards "
                          "and the Cedar/GVX workloads"),
    "adaptive": (_cmd_adaptive, "future work: adaptive timeouts"),
    "fairshare": (_cmd_fairshare, "future work: fair-share scheduling"),
    "chaos": (_cmd_chaos, "fault-injection sweep (stolen NOTIFYs, spurious "
                          "wakeups, FORK failures, kills, timer jitter) with "
                          "the waits-for watchdog and invariant checks"),
    "explore": (_cmd_explore, "systematic schedule exploration: search the "
                              "kernel's scheduling/fault decision space for "
                              "invariant violations and shrink each find to "
                              "a minimal replayable counterexample"),
    "litmus": (_cmd_litmus, "enumerate reachable outcomes of the classic "
                            "SB/MP/LB/IRIW litmus tests under the sc/tso/"
                            "pso memory models and check the pinned "
                            "expectation tables"),
    "serve": (_cmd_serve, "run the multi-tenant RPC server world and print "
                          "its latency-SLO report (p50/p95/p99/p999, "
                          "shed/timeout/retry counters, stats digest)"),
    "cluster": (_cmd_cluster, "run the sharded cluster world (balancer + "
                              "N shards) and print the merged SLO rollup "
                              "with per-shard health"),
    "workload": (_cmd_workload, "compile a million-client scenario "
                                "(diurnal curves, flash crowds, retry "
                                "storms, cache stampedes) and print the "
                                "per-tenant SLO-attainment report"),
    "trace": (_cmd_trace, "render a 100 ms event history; optionally "
                          "export a Chrome trace JSON"),
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Using Threads in Interactive Systems: "
            "A Case Study' (SOSP 1993)"
        ),
    )
    parser.add_argument("--seed", type=int, default=0,
                        help="simulation seed (default 0)")
    parser.add_argument(
        "--no-raise-on-deadlock", action="store_true",
        help="on deadlock, print the waits-for diagnosis table and exit 1 "
             "instead of raising a traceback",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_handler, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        if name == "tables":
            sub.add_argument("system", nargs="?", choices=["Cedar", "GVX"],
                             help="limit to one system")
        if name == "trace":
            sub.add_argument("output", nargs="?",
                             help="Chrome trace JSON output path")
        if name == "serve":
            sub.add_argument("--scenario", default="steady",
                             choices=["steady", "overload"],
                             help="tenant mix (default steady)")
            sub.add_argument("--workers", type=int, default=4,
                             help="worker-pool size (default 4)")
            sub.add_argument("--policy", default="strict",
                             choices=["strict", "fair_share"],
                             help="scheduler policy (default strict)")
            sub.add_argument("--capacity", type=int, default=32,
                             help="admission queue capacity (default 32)")
            sub.add_argument("--duration-ms", type=int, default=2000,
                             help="simulated run length in ms (default 2000)")
            sub.add_argument("--output", default=None,
                             help="write the JSON report here")
        if name == "cluster":
            from repro.cluster import (
                ADMISSION_POLICIES,
                BALANCER_POLICIES,
                CLUSTER_SCENARIOS,
            )

            sub.add_argument("--scenario", default="steady",
                             choices=list(CLUSTER_SCENARIOS),
                             help="tenant mix (default steady)")
            sub.add_argument("--shards", type=int, default=2,
                             help="RPC-server shards (default 2)")
            sub.add_argument("--workers-per-shard", type=int, default=4,
                             help="worker pool per shard (default 4)")
            sub.add_argument("--policy", default="p2c",
                             choices=list(BALANCER_POLICIES),
                             help="balancer routing policy (default p2c)")
            sub.add_argument("--admission", default="wfq",
                             choices=list(ADMISSION_POLICIES),
                             help="balancer admission policy (default wfq)")
            sub.add_argument("--capacity", type=int, default=64,
                             help="balancer admission capacity (default 64)")
            sub.add_argument("--replicas", action="store_true",
                             help="pair every shard with a log-shipped "
                                  "replica and arm the balancer lease + "
                                  "standby")
            sub.add_argument("--duration-ms", type=int, default=2000,
                             help="simulated run length in ms (default 2000)")
            sub.add_argument("--adapt-weights", type=int, default=0,
                             metavar="ROUNDS",
                             help="instead of one run, close the SLO "
                                  "feedback loop: rerun up to ROUNDS times "
                                  "nudging WFQ weights until they settle")
            sub.add_argument("--output", default=None,
                             help="write the JSON report here")
        if name == "workload":
            from repro.workload import WORKLOAD_SCENARIOS

            sub.add_argument("--scenario", default="diurnal",
                             choices=list(WORKLOAD_SCENARIOS),
                             help="compiled scenario (default diurnal)")
            sub.add_argument("--duration-ms", type=int, default=2000,
                             help="simulated run length in ms (default 2000)")
            sub.add_argument("--no-single-flight", action="store_true",
                             help="disable the cache tier's single-flight "
                                  "guard (stampede mode)")
            sub.add_argument("--output", default=None,
                             help="write the JSON report here")
        if name == "explore":
            from repro.explore.strategies import STRATEGIES

            sub.add_argument("--scenario", default="directed",
                             help="comma list of catalogue names and tags "
                                  "(directed, clean, all = both, chaos, "
                                  "sweep, golden, litmus; default "
                                  "directed)")
            sub.add_argument("--strategy", default="random",
                             choices=list(STRATEGIES),
                             help="schedule-generation strategy "
                                  "(default random)")
            sub.add_argument("--budget", type=int, default=200,
                             help="max schedules per scenario (default 200)")
            sub.add_argument("--replay", default=None, metavar="FILE",
                             help="replay a saved decision trace instead of "
                                  "exploring; verifies the recorded "
                                  "decisions and failure")
            sub.add_argument("--output", default=None,
                             help="write the JSON report here (minimal "
                                  "traces are saved alongside it)")
        if name == "litmus":
            from repro.explore.strategies import STRATEGIES

            sub.add_argument("--test", default="all",
                             help="litmus test name or comma list: sb, mp, "
                                  "lb, iriw (default all)")
            sub.add_argument("--model", default="all",
                             help="memory model or comma list: sc, tso, pso "
                                  "(default all)")
            sub.add_argument("--strategy", default=None,
                             choices=list(STRATEGIES),
                             help="override the per-pair default search "
                                  "(exhaustive; random for IRIW)")
            sub.add_argument("--budget", type=int, default=None,
                             help="override the per-pair schedule budget")
            sub.add_argument("--trace-dir", default=None, metavar="DIR",
                             help="save a replayable witness trace for every "
                                  "beyond-SC outcome reached")
            sub.add_argument("--replay", default=None, metavar="FILE",
                             help="replay a saved witness trace; verifies "
                                  "the recorded decisions and outcome")
            sub.add_argument("--output", default=None,
                             help="write the JSON report here")
        if name == "chaos":
            sub.add_argument("--runs", type=int, default=14,
                             help="sampled fault-plan runs (default 14)")
            sub.add_argument("--scenario", default=None,
                             help="comma list of catalogue names and tags "
                                  "to run as directed runs (default: the "
                                  "chaos tag)")
            sub.add_argument("--skip-golden", action="store_true",
                             help="skip the faults-off golden-hash check")
            sub.add_argument("--output", default=None,
                             help="write the JSON report here")
    args = parser.parse_args(argv)
    handler, _help = _COMMANDS[args.command]
    try:
        handler(args)
    except Exception as error:
        from repro.kernel.errors import Deadlock

        if not (args.no_raise_on_deadlock and isinstance(error, Deadlock)):
            raise
        from repro.analysis.watchdog import format_rows

        print("deadlock detected:", file=sys.stderr)
        if error.rows:
            print(format_rows(error.rows), file=sys.stderr)
        else:
            print(str(error), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
