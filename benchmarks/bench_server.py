"""Server-world SLO sweep: scheduling policy x pool size x offered load.

Two ways to run it:

* ``python benchmarks/bench_server.py`` (``make bench-server``) — runs
  the full grid and writes ``BENCH_server.json``: per-cell throughput,
  p50/p95/p99/p999, shed/timeout/retry counters and the stats digest
  (the determinism witness).  ``--quick`` shortens the simulated run for
  CI smoke jobs.
* ``pytest benchmarks/bench_server.py`` — the acceptance assertions:
  the overload scenario sheds load instead of growing the admission
  queue without bound, steady-state barely sheds at all, and every grid
  cell reports the full quantile set.

The quantum sweep re-runs the steady scenario under different scheduler
timeslices (§6.3: timeouts and timed wakeups only fire on quantum
boundaries), producing a p99-vs-quantum curve: with a 200 ms quantum
every Pause, CV timeout and channel timeout rounds up to the next
200 ms tick and tail latency inflates accordingly.
"""

import json
import sys
from pathlib import Path

from repro.kernel.simtime import msec, sec
from repro.server.world import run_server

SCENARIOS = ("steady", "overload")
POLICIES = ("strict", "fair_share")
POOL_SIZES = (2, 6)
ADMISSION_CAPACITY = 32

#: §6.3 timeslice sensitivity: the paper's 50 ms default bracketed by a
#: near-immediate tick and a coarse legacy-style quantum.
QUANTA = (msec(1), msec(20), msec(50), msec(200))

FULL_RUN = sec(2)
QUICK_RUN = sec(1)

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_server.json"


def run_grid(duration: int = FULL_RUN, *, progress=None) -> list[dict]:
    """Every (scenario, policy, workers) cell, as report dicts."""
    say = progress or (lambda line: None)
    cells = []
    for scenario in SCENARIOS:
        for policy in POLICIES:
            for workers in POOL_SIZES:
                report = run_server(
                    scenario=scenario,
                    policy=policy,
                    workers=workers,
                    admission_capacity=ADMISSION_CAPACITY,
                    duration=duration,
                )
                cell = report.to_dict()
                say(
                    f"  {scenario:<9} {policy:<10} workers={workers}: "
                    f"{cell['throughput_per_sec']:>7.1f} req/s  "
                    f"shed {100 * cell['shed_fraction']:5.1f}%  "
                    f"p50={cell['stats']['latency']['p50'] / 1000:.1f}ms "
                    f"p99={cell['stats']['latency']['p99'] / 1000:.1f}ms"
                )
                cells.append(cell)
    return cells


def run_quantum_sweep(duration: int = FULL_RUN, *, progress=None) -> list[dict]:
    """The steady scenario under each scheduler timeslice in QUANTA."""
    say = progress or (lambda line: None)
    points = []
    for quantum in QUANTA:
        report = run_server(
            scenario="steady",
            admission_capacity=ADMISSION_CAPACITY,
            duration=duration,
            quantum=quantum,
        )
        latency = report.to_dict()["stats"]["latency"]
        point = {
            "quantum_us": quantum,
            "throughput_per_sec": report.to_dict()["throughput_per_sec"],
            "shed_fraction": report.to_dict()["shed_fraction"],
            "p50": latency["p50"],
            "p99": latency["p99"],
            "p999": latency["p999"],
            "digest": report.digest,
        }
        say(
            f"  quantum {quantum / 1000:>5g} ms: "
            f"{point['throughput_per_sec']:>7.1f} req/s  "
            f"p50={point['p50'] / 1000:.1f}ms p99={point['p99'] / 1000:.1f}ms"
        )
        points.append(point)
    return points


# ---------------------------------------------------------------------------
# pytest acceptance entry points
# ---------------------------------------------------------------------------

def test_server_grid_slo_report():
    """The acceptance grid: >=2 policies x >=2 pool sizes, full quantile
    set everywhere, overload shedding instead of unbounded queueing."""
    cells = run_grid(QUICK_RUN)
    assert len(cells) == len(SCENARIOS) * len(POLICIES) * len(POOL_SIZES)
    for cell in cells:
        latency = cell["stats"]["latency"]
        for quantile in ("p50", "p95", "p99", "p999"):
            assert isinstance(latency[quantile], int)
        assert cell["throughput_per_sec"] > 0
        # Bounded admission: the sampled depth never exceeds capacity.
        assert cell["stats"]["max_depth_sampled"] <= ADMISSION_CAPACITY

    by_scenario = {}
    for cell in cells:
        by_scenario.setdefault(cell["scenario"], []).append(cell)
    for cell in by_scenario["overload"]:
        assert cell["shed_fraction"] > 0.10, (
            f"overload cell {cell['policy']}/{cell['workers']} "
            f"shed only {cell['shed_fraction']:.1%}"
        )
    for cell in by_scenario["steady"]:
        assert cell["shed_fraction"] < 0.05


def test_quantum_sweep_slo_sensitivity():
    """§6.3: tail latency degrades as the scheduler quantum coarsens —
    timed wakeups only fire on quantum boundaries, so a coarse timeslice
    quantises every timeout and client retry up to the next tick."""
    points = run_quantum_sweep(QUICK_RUN)
    assert len(points) == len(QUANTA)
    by_quantum = {p["quantum_us"]: p for p in points}
    fine, coarse = by_quantum[QUANTA[0]], by_quantum[QUANTA[-1]]
    assert coarse["p99"] > fine["p99"], (
        f"coarse quantum p99 {coarse['p99']} should exceed fine-quantum "
        f"p99 {fine['p99']}"
    )
    for point in points:
        assert point["throughput_per_sec"] > 0


def test_server_digest_is_deterministic():
    """Same seed and knobs => identical stats digest."""
    first = run_server(scenario="steady", duration=QUICK_RUN)
    second = run_server(scenario="steady", duration=QUICK_RUN)
    assert first.digest == second.digest


def test_perf_server_steady(benchmark):
    """Wall-clock cost of one steady-state second (simulator overhead)."""
    report = benchmark(lambda: run_server(scenario="steady", duration=QUICK_RUN))
    assert report.completed > 0


# ---------------------------------------------------------------------------
# Script runner (``make bench-server``)
# ---------------------------------------------------------------------------

def main(argv: list[str]) -> int:
    quick = "--quick" in argv
    output = DEFAULT_OUTPUT
    for i, arg in enumerate(argv):
        if arg == "--output":
            output = Path(argv[i + 1])
    duration = QUICK_RUN if quick else FULL_RUN
    print(f"server SLO sweep ({duration // 1_000_000}s simulated per cell):")
    cells = run_grid(duration, progress=print)
    print("quantum sweep (steady scenario, p99 vs timeslice):")
    quantum_sweep = run_quantum_sweep(duration, progress=print)
    payload = {
        "duration_us": duration,
        "admission_capacity": ADMISSION_CAPACITY,
        "grid": {
            "scenarios": list(SCENARIOS),
            "policies": list(POLICIES),
            "pool_sizes": list(POOL_SIZES),
        },
        "runs": cells,
        "quantum_sweep": quantum_sweep,
    }
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
