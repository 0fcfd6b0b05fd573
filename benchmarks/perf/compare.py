"""Compare two sets of benchmark runs: a parent commit and a change.

    python3 benchmarks/perf/compare.py parent.json change.json

Each file is the ``--output`` of ``run.py --repeat N`` (one record per
run).  Per workload and end-to-end metric this prints each side's
median and quartiles, the pairs the change won (runs paired in seed
order, ties counting for neither side), and a verdict:

``improved``
    the change wins at least nine tenths of the pairs and the medians
    differ, in its favour, by more than the parent's interquartile
    range;
``unresolved``
    the parent's own spread (interquartile range over median) is wider
    than the metric's bound, and not every run of the change beats
    every run of the parent;
``regressed``
    the change's median is worse than the parent's by more than the
    bound in ``BENCHMARK.json``;
``within bound``
    otherwise.

Simulated results must not move at all: digests, and every per-layer
metric that is not host time, are compared for equality seed by seed
(per-layer metrics come from ``--trace 1`` runs).  The exit status is 1
when anything regressed, an exact value changed, or the change failed
more operations than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SPEC_FILE = Path(__file__).resolve().parents[2] / "BENCHMARK.json"

#: Per-layer metrics that measure host time; every other one is exact.
HOST_TIMED = {
    "kernel.host_us_per_dispatch", "kernel.sim_rate",
    "explore.schedules_per_s", "explore.build_share", "trace_overhead",
}


def host_timed(name: str) -> bool:
    return (
        name in HOST_TIMED
        or name.startswith("span.")
        or name.endswith((".self_share", ".self_s"))
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def verdict(
    parent: list[float], change: list[float], better: str, bound: float
) -> tuple[str, int, int]:
    """(verdict, pairs won by the change, pairs compared)."""
    sign = 1 if better == "higher" else -1
    pairs = list(zip(parent, change))
    won = sum(1 for a, b in pairs if sign * (b - a) > 0)
    q1, median_a, q3 = quartiles(parent)
    median_b = statistics.median(change)
    gain = sign * (median_b - median_a)
    if pairs and won >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved", won, len(pairs)
    all_better = all(sign * (b - a) > 0 for a in parent for b in change)
    if median_a and (q3 - q1) / abs(median_a) > bound and not all_better:
        return "unresolved", won, len(pairs)
    if -gain > bound * abs(median_a):
        return "regressed", won, len(pairs)
    return "within bound", won, len(pairs)


def by_seed(records: list[dict], trace: int) -> dict:
    """workload -> seed -> record, for the runs that produced a result."""
    out: dict = {}
    for record in records:
        if record["trace"] == trace and record.get("result"):
            out.setdefault(record["workload"], {})[record["seed"]] = record
    return out


def compare(parent: list[dict], change: list[dict], spec: dict) -> int:
    status = 0
    base, new = by_seed(parent, 0), by_seed(change, 0)
    print(
        f"{'workload':15} {'metric':12} {'parent q1/med/q3':>30} "
        f"{'change q1/med/q3':>30} {'won':>6}  verdict"
    )
    for workload in (w["name"] for w in spec["workloads"]):
        runs_a = [r for _, r in sorted(base.get(workload, {}).items())]
        runs_b = [r for _, r in sorted(new.get(workload, {}).items())]
        if not runs_a or not runs_b:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = [r["result"]["metrics"][name]["value"] for r in runs_a]
            b = [r["result"]["metrics"][name]["value"] for r in runs_b]
            word, won, pairs = verdict(a, b, metric["better"], metric["bound"])
            if word == "regressed":
                status = 1
            qa, qb = quartiles(a), quartiles(b)
            print(
                f"{workload:15} {name:12} "
                f"{'/'.join(f'{v:.4g}' for v in qa):>30} "
                f"{'/'.join(f'{v:.4g}' for v in qb):>30} "
                f"{won:>3}/{pairs:<2}  {word}"
            )
        failed_a = sum(r["result"]["failed"] for r in runs_a)
        failed_b = sum(r["result"]["failed"] for r in runs_b)
        if failed_b > failed_a:
            print(f"{workload}: change failed {failed_b} operations, "
                  f"parent {failed_a}")
            status = 1

    for trace in (0, 1):
        base, new = by_seed(parent, trace), by_seed(change, trace)
        for workload, seeds in base.items():
            for seed, record in seeds.items():
                other = new.get(workload, {}).get(seed)
                if other is None:
                    continue
                if record.get("digest") != other.get("digest"):
                    print(f"{workload} seed {seed}: digest changed")
                    status = 1
                if not trace:
                    continue
                ma = record["result"]["metrics"]
                mb = other["result"]["metrics"]
                for name in ma:
                    if host_timed(name) or ma[name] == mb.get(name):
                        continue
                    print(
                        f"{workload} seed {seed}: exact metric {name} "
                        f"changed {ma[name]['value']} -> "
                        f"{mb.get(name, {}).get('value')}"
                    )
                    status = 1
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(SPEC_FILE) as handle:
        spec = json.load(handle)
    with open(args.parent) as handle:
        parent = json.load(handle)
    with open(args.change) as handle:
        change = json.load(handle)
    return compare(parent, change, spec)


if __name__ == "__main__":
    sys.exit(main())
