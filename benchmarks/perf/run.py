"""The repository benchmark: end-to-end and per-layer host-time metrics.

Run one workload (this is what ``BENCHMARK.json``'s command does)::

    python3 benchmarks/perf/run.py --workload litmus --seed 0 \\
        --seconds 10 --trace 0

or every workload, each in its own fresh interpreter, one after
another::

    python3 benchmarks/perf/run.py --seed 0 [--traced] [--repeat N] \\
        [--output runs.json]

A run does one warm-up pass, repeats passes until ``--seconds`` have
elapsed, then sets the workload up ``SETUP_LAUNCHES`` times in fresh
interpreters.  Host times are medians, in the normalised seconds of
``clock.py``.  Every metric prints as ``workload metric value unit``;
the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured with no tracing probe attached.  With
``--trace 1`` untraced and traced passes alternate and the metrics are
the per-layer ones (see ``profiler.py``); the spans of the last traced
pass are written to ``benchmarks/perf/out/<workload>-seed<N>.trace.json``.

A failed check prints its reason, reports ``correct: false`` and exits
1.  ``--repeat N`` runs seeds ``seed .. seed+N-1`` and flags every
end-to-end metric whose spread (interquartile range over median)
exceeds its bound in ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
SPEC_FILE = ROOT / "BENCHMARK.json"
OUT_DIR = HERE / "out"

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_LAUNCHES = 9


def load_spec() -> dict:
    with open(SPEC_FILE) as handle:
        return json.load(handle)


def spread(values: list[float]) -> float:
    """Interquartile range over median, as the acceptance rule takes it."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


# -- one workload, in this process --------------------------------------------


def time_setup(workload: str, seed: int, timer) -> None:
    """Time fresh interpreters that import the simulator, build the
    workload's worlds and exit.  Each child runs the speed probe itself
    and reports its time since the parent launched it; one untimed
    launch first leaves the bytecode cache warm."""
    for launch in range(SETUP_LAUNCHES + 1):
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload",
            workload, "--seed", str(seed),
            "--setup-only", repr(time.perf_counter()),
        ]
        child = subprocess.run(
            command, check=True, capture_output=True, text=True
        )
        if launch:
            timed = json.loads(child.stdout.splitlines()[-1])
            timer.record("setup", timed["raw"], timed["normalised"])


def set_up(workload: str, seed: int, launched: float) -> None:
    """The ``--setup-only`` child: build the worlds under the probe."""
    from clock import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    try:
        from suite import WORKLOADS

        WORKLOADS[workload].setup(seed)
    finally:
        probe.stop()
    raw, normalised = probe.normalise(time.perf_counter() - launched)
    print(json.dumps({"raw": raw, "normalised": normalised}))


def measure(workload: str, seed: int, seconds: float, traced: bool):
    """Run passes for ``seconds``.

    Returns ``(metrics, notes, attempted, failed, problems, digest)``;
    ``notes`` are values printed for the reader but not reported.
    """
    from clock import NormalisedTimer
    from profiler import NO_SPANS, StackSampler, Spans, write_chrome_trace
    from suite import WORKLOADS

    run = WORKLOADS[workload].run
    reference = run(seed, NO_SPANS)
    problems = list(reference.problems)
    seen = set(problems)

    def verify(result, label: str) -> None:
        found = list(result.problems)
        if result.digest != reference.digest:
            found.append(f"{label} pass digest differs from the first pass")
        for problem in found:
            if problem not in seen:
                seen.add(problem)
                problems.append(problem)

    sampler = StackSampler(SRC / "repro") if traced else None
    spans = Spans()
    span_self: list = []

    def traced_pass():
        sampler.start()
        try:
            return run(seed, spans)
        finally:
            sampler.stop()

    timer = NormalisedTimer()
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    while True:
        result = timer.time("untraced", run, seed, NO_SPANS)
        attempted += result.attempted
        failed += result.failed
        verify(result, "untraced")
        if sampler is not None:
            spans = Spans()
            verify(timer.time("traced", traced_pass), "traced")
            scale = timer.normalised_s["traced"][-1] / timer.raw_s["traced"][-1]
            span_self.append(
                {name: secs * scale for name, secs in spans.self_s.items()}
            )
        if time.perf_counter() >= deadline:
            break

    pass_s = timer.median("untraced")
    notes = {"raw_pass_s": (timer.raw_median("untraced"), "s")}
    if sampler is None:
        time_setup(workload, seed, timer)
        metrics = {
            "setup_s": timer.median("setup"),
            "pass_s": pass_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024,
        }
        notes["raw_setup_s"] = (timer.raw_median("setup"), "s")
        return metrics, notes, attempted, failed, problems, reference.digest

    metrics = dict(reference.counters)
    for layer, share in sampler.shares().items():
        metrics[f"{layer}.self_share"] = share
        metrics[f"{layer}.self_s"] = share * pass_s
    for name in ("build", "run", "fold", "check"):
        metrics[f"span.{name}_s"] = statistics.median(
            totals.get(name, 0.0) for totals in span_self
        )
    metrics["trace_overhead"] = timer.median("traced") / pass_s
    dispatches = metrics.get("kernel.dispatches", 0)
    if dispatches:
        metrics["kernel.host_us_per_dispatch"] = pass_s * 1e6 / dispatches
    if metrics.get("sim_seconds"):
        metrics["kernel.sim_rate"] = metrics["sim_seconds"] / pass_s
    schedules = metrics.get("explore.schedules", 0)
    if schedules:
        metrics["explore.schedules_per_s"] = schedules / pass_s
        build, run_self = metrics["span.build_s"], metrics["span.run_s"]
        metrics["explore.build_share"] = build / (build + run_self)
    notes["samples"] = (sampler.samples, "count")
    write_chrome_trace(
        OUT_DIR / f"{workload}-seed{seed}.trace.json",
        spans,
        {"workload": workload, "seed": seed, "digest": reference.digest},
    )
    return metrics, notes, attempted, failed, problems, reference.digest


def run_one(args, spec: dict) -> int:
    traced = bool(args.trace)
    metrics, notes, attempted, failed, problems, digest = measure(
        args.workload, args.seed, args.seconds, traced
    )
    listed = spec["per_layer"] if traced else spec["end_to_end"]
    report = {}
    for entry in listed:
        value = float(metrics.get(entry["name"], 0.0))
        report[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{args.workload} {entry['name']} {value:.6g} {entry['unit']}")
    for name, (value, unit) in notes.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(f"{args.workload} digest {digest} sha256")
    for problem in problems:
        print(f"{args.workload} CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": report,
    }))
    return 0 if not problems else 1


# -- several workloads, each in a fresh interpreter ---------------------------


def launch(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a child interpreter; relay and parse its
    output."""
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    child = subprocess.run(command, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    sys.stderr.write(child.stderr)
    record = {
        "workload": workload, "seed": seed, "trace": trace,
        "returncode": child.returncode,
    }
    if lines:
        try:
            record["result"] = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(lines[-1])
    for line in lines:
        fields = line.split()
        if len(fields) == 4 and fields[1] == "digest":
            record["digest"] = fields[2]
    return record


def run_many(args, spec: dict) -> int:
    workloads = (
        [args.workload] if args.workload
        else [w["name"] for w in spec["workloads"]]
    )
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    records = []
    status = 0
    for workload in workloads:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for offset in range(args.repeat):
            record = launch(
                workload, args.seed + offset, args.seconds, args.trace
            )
            records.append(record)
            result = record.get("result")
            if record["returncode"] or not result or not result["correct"]:
                status = 1
                continue
            for name, metric in result["metrics"].items():
                if name in values:
                    values[name].append(metric["value"])
        if args.repeat > 1 and not args.trace:
            for name, bound in bounds.items():
                if len(values[name]) < 2:
                    continue
                observed = spread(values[name])
                verdict = "FLAG" if observed > bound else "ok"
                if observed > bound:
                    status = 1
                print(
                    f"{workload} {name} spread {observed:.4f} "
                    f"bound {bound} median "
                    f"{statistics.median(values[name]):.6g} {verdict}"
                )
    if args.output:
        with open(args.output, "w") as handle:
            json.dump(records, handle, indent=1)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--traced", dest="trace", action="store_const", const=1,
        help="same as --trace 1",
    )
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--output")
    parser.add_argument("--setup-only", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"run.py: no simulator source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; choose {names}")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    if args.setup_only is not None:
        set_up(args.workload, args.seed, args.setup_only)
        return 0
    if args.workload and args.repeat == 1 and not args.output:
        return run_one(args, spec)
    return run_many(args, spec)


if __name__ == "__main__":
    sys.exit(main())
