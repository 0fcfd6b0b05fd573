"""Simulator microbenchmarks: real wall-clock cost of the kernel itself.

Not a paper artifact — these quantify how much simulated activity a
second of host CPU buys, which is what bounds how long a measurement
window the other benches can afford.

Two ways to run them:

* ``pytest benchmarks/bench_kernel_perf.py --benchmark-only`` — the usual
  pytest-benchmark harness;
* ``python benchmarks/bench_kernel_perf.py`` — the perf-trajectory
  runner: times every scenario and writes ``BENCH_kernel_perf.json``
  (see ``make bench-perf``), preserving the pinned pre-optimisation
  ``baseline`` section so the file itself records the speedup.

Every scenario runs with tracing disabled unless its name says otherwise;
the disabled-trace numbers are the ones the hot-path fast paths target
(the golden-schedule tests in ``tests/test_golden_schedule.py`` guarantee
the fast paths change no behaviour).
"""

import json
import platform
import sys
import time
from pathlib import Path

from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.kernel.primitives import Enter, Exit, Notify, Wait
from repro.kernel.rng import DeterministicRng
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor
from repro.workloads.base import LibraryPool


# ---------------------------------------------------------------------------
# Scenarios — each returns the number of simulated operations performed.
# ---------------------------------------------------------------------------

def scenario_monitor_traffic(trace: bool = False) -> int:
    """Throughput of the hottest path: enter/exit on a free monitor."""
    kernel = Kernel(
        KernelConfig(switch_cost=0, monitor_overhead=0, trace=trace)
    )
    lock = Monitor("hot")

    def worker():
        for _ in range(20_000):
            yield Enter(lock)
            yield Exit(lock)

    kernel.fork_root(worker)
    kernel.run_for(sec(10))
    enters = kernel.stats.ml_enters
    kernel.shutdown()
    assert enters == 20_000
    return enters


def scenario_monitor_traffic_tso(model: str = "tso") -> int:
    """The hot monitor path with the tso store-buffer model attached:
    every enter/exit runs the fence path, bounding the memory-model
    seam's overhead (the ``tso_overhead`` section of the JSON holds the
    ratio against the plain ``sc`` run, required <= 1.5x)."""
    kernel = Kernel(
        KernelConfig(switch_cost=0, monitor_overhead=0, memory_model=model)
    )
    lock = Monitor("hot")

    def worker():
        for _ in range(20_000):
            yield Enter(lock)
            yield Exit(lock)

    kernel.fork_root(worker)
    kernel.run_for(sec(10))
    enters = kernel.stats.ml_enters
    kernel.shutdown()
    assert enters == 20_000
    return enters


def scenario_monitor_bursts() -> int:
    """The paper's monitor-dense pattern at default costs: ``touch``-shaped
    visits, each burning ``monitor_overhead`` at Enter and at Exit and
    2 us of work inside, so every entry is three short CPU bursts."""
    kernel = Kernel(KernelConfig())
    lock = Monitor("touched")

    def worker():
        for _ in range(20_000):
            yield Enter(lock)
            try:
                yield p.Compute(usec(2))
            finally:
                yield Exit(lock)

    kernel.fork_root(worker)
    kernel.run_for(sec(10))
    enters = kernel.stats.ml_enters
    kernel.shutdown()
    assert enters == 20_000
    return enters


def scenario_pool_touch() -> int:
    """``LibraryPool.touch`` itself, the paper-table worlds' hottest body,
    at default costs: each visit yields a monitor's shared Enter and Exit
    traps and the pool's one ``Compute``, over a 40-monitor pool (the
    GVX core pool's size)."""
    kernel = Kernel(KernelConfig())
    pool = LibraryPool("touched", 40, DeterministicRng(0))

    def worker():
        yield from pool.touch(20_000)

    kernel.fork_root(worker)
    kernel.run_for(sec(10))
    enters = kernel.stats.ml_enters
    kernel.shutdown()
    assert enters == 20_000
    return enters


def scenario_monitor_traffic_traced() -> int:
    """Same traffic with full tracing on — the tracing overhead bound."""
    return scenario_monitor_traffic(trace=True)


def scenario_context_switching() -> int:
    """Two threads ping-ponging through yields."""
    kernel = Kernel(KernelConfig(switch_cost=usec(40)))

    def worker():
        for _ in range(5_000):
            yield p.Compute(usec(10))
            yield p.Yield()

    kernel.fork_root(worker)
    kernel.fork_root(worker)
    kernel.run_for(sec(60))
    switches = kernel.stats.switches
    kernel.shutdown()
    assert switches >= 10_000
    return switches


def scenario_cv_ping_pong() -> int:
    """Two threads handing a turn flag back and forth through a CV."""
    kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))
    lock = Monitor("pp")
    cv_ping = ConditionVariable(lock, "pp.ping")
    cv_pong = ConditionVariable(lock, "pp.pong")
    state = {"turn": "ping"}
    rounds = 3_000

    def player(me, my_cv, peer, peer_cv):
        for _ in range(rounds):
            yield Enter(lock)
            try:
                while state["turn"] != me:
                    yield Wait(my_cv)
                state["turn"] = peer
                yield Notify(peer_cv)
            finally:
                yield Exit(lock)

    kernel.fork_root(
        player, args=("ping", cv_ping, "pong", cv_pong), name="ping"
    )
    kernel.fork_root(
        player, args=("pong", cv_pong, "ping", cv_ping), name="pong"
    )
    kernel.run_for(sec(60))
    waits = kernel.stats.cv_waits
    notifies = kernel.stats.cv_notifies
    kernel.shutdown()
    assert notifies == 2 * rounds
    return waits + notifies


def scenario_timed_waits() -> int:
    """Tick-granular timeouts: CV waits that mostly time out."""
    kernel = Kernel(
        KernelConfig(switch_cost=0, monitor_overhead=0, quantum=msec(5))
    )
    population = []
    for i in range(10):
        lock = Monitor(f"tw{i}")
        population.append((lock, ConditionVariable(lock, f"tw{i}.cv")))

    def sleeper(lock, cv):
        for _ in range(250):
            yield Enter(lock)
            try:
                yield Wait(cv, timeout=msec(10))
            finally:
                yield Exit(lock)

    for lock, cv in population:
        kernel.fork_root(sleeper, args=(lock, cv))
    kernel.run_for(sec(60))
    timeouts = kernel.stats.cv_timeouts
    kernel.shutdown()
    assert timeouts == 2_500
    return timeouts


def scenario_fork_join_churn() -> int:
    """Thread lifecycle cost: fork a child, join it, repeat."""
    kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))

    def leaf():
        yield p.Compute(usec(5))

    def root():
        for _ in range(3_000):
            child = yield p.Fork(leaf)
            yield p.Join(child)

    kernel.fork_root(root)
    kernel.run_for(sec(60))
    forks = kernel.stats.forks
    kernel.shutdown()
    assert forks == 3_000
    return forks


def scenario_timer_wheel() -> int:
    """Many sleepers churning tick-granular timeouts."""
    kernel = Kernel(KernelConfig(switch_cost=0))

    def sleeper():
        for _ in range(50):
            yield p.Pause(msec(50))

    for _ in range(50):
        kernel.fork_root(sleeper)
    kernel.run_for(sec(60))
    dispatches = kernel.stats.dispatches
    kernel.shutdown()
    assert dispatches >= 2_500
    return dispatches


def scenario_multiprocessor_traffic() -> int:
    """Three CPUs at default costs: a producer hands items to four
    higher-priority workers through a monitor and condition variable.
    Each NOTIFY readies a worker that preempts the producer and often
    runs on another CPU, and CPUs idle while the workers wait, so the
    loop's idle-CPU dispatch and the multiprocessor burn-limit terms
    all run."""
    kernel = Kernel(KernelConfig(ncpus=3))
    lock = Monitor("mp")
    nonempty = ConditionVariable(lock, "mp.nonempty")
    queue = []
    items = 2_000
    consumed = 0

    def producer():
        for item in range(items):
            yield p.Compute(usec(60))
            yield Enter(lock)
            try:
                queue.append(item)
                yield Notify(nonempty)
            finally:
                yield Exit(lock)

    def worker():
        nonlocal consumed
        while True:
            yield Enter(lock)
            try:
                while not queue:
                    yield Wait(nonempty)
                queue.pop()
            finally:
                yield Exit(lock)
            yield p.Compute(usec(150))
            consumed += 1

    kernel.fork_root(producer, name="producer", priority=3)
    for index in range(4):
        kernel.fork_root(worker, name=f"worker{index}", priority=4)
    kernel.run_for(sec(60))
    preemptions = kernel.stats.preemptions
    kernel.shutdown()
    assert consumed == items and preemptions >= items
    return consumed


SCENARIOS = {
    "monitor_traffic": scenario_monitor_traffic,
    "monitor_traffic_tso": scenario_monitor_traffic_tso,
    "monitor_traffic_traced": scenario_monitor_traffic_traced,
    "monitor_bursts": scenario_monitor_bursts,
    "pool_touch": scenario_pool_touch,
    "context_switching": scenario_context_switching,
    "cv_ping_pong": scenario_cv_ping_pong,
    "timed_waits": scenario_timed_waits,
    "fork_join_churn": scenario_fork_join_churn,
    "timer_wheel": scenario_timer_wheel,
    "multiprocessor_traffic": scenario_multiprocessor_traffic,
}


# ---------------------------------------------------------------------------
# pytest-benchmark entry points
# ---------------------------------------------------------------------------

def test_perf_monitor_traffic(benchmark):
    assert benchmark(scenario_monitor_traffic) == 20_000


def test_perf_monitor_traffic_tso(benchmark):
    assert benchmark(scenario_monitor_traffic_tso) == 20_000


def test_perf_monitor_bursts(benchmark):
    assert benchmark(scenario_monitor_bursts) == 20_000


def test_perf_pool_touch(benchmark):
    assert benchmark(scenario_pool_touch) == 20_000


def test_perf_context_switching(benchmark):
    assert benchmark(scenario_context_switching) >= 10_000


def test_perf_cv_ping_pong(benchmark):
    assert benchmark(scenario_cv_ping_pong) >= 6_000


def test_perf_timed_waits(benchmark):
    assert benchmark(scenario_timed_waits) == 2_500


def test_perf_fork_join_churn(benchmark):
    assert benchmark(scenario_fork_join_churn) == 3_000


def test_perf_timer_wheel(benchmark):
    assert benchmark(scenario_timer_wheel) >= 2_500


def test_perf_multiprocessor_traffic(benchmark):
    assert benchmark(scenario_multiprocessor_traffic) == 2_000


# ---------------------------------------------------------------------------
# Perf-trajectory runner (``make bench-perf``)
# ---------------------------------------------------------------------------

DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_kernel_perf.json"
#: The two microbenches the hot-path work is judged on.
HEADLINE = ("monitor_traffic", "context_switching")


def time_scenario(fn, reps: int = 3) -> dict:
    """Best-of-``reps`` wall-clock timing of one scenario."""
    best = None
    ops = 0
    for _ in range(reps):
        t0 = time.perf_counter()
        ops = fn()
        elapsed = time.perf_counter() - t0
        if best is None or elapsed < best:
            best = elapsed
    return {
        "ops": ops,
        "seconds": round(best, 6),
        "ops_per_sec": round(ops / best, 1),
    }


def run_all(reps: int = 3) -> dict:
    results = {}
    for name, fn in SCENARIOS.items():
        results[name] = time_scenario(fn, reps)
        print(
            f"  {name:<24} {results[name]['ops_per_sec']:>12,.1f} ops/s "
            f"({results[name]['seconds']:.3f}s)"
        )
    return results


def main(argv: list[str]) -> int:
    record_baseline = "--record-baseline" in argv
    output = DEFAULT_OUTPUT
    for i, arg in enumerate(argv):
        if arg == "--output":
            output = Path(argv[i + 1])

    print(f"kernel perf scenarios ({'baseline' if record_baseline else 'current'}):")
    current = run_all()

    existing = {}
    if output.exists():
        existing = json.loads(output.read_text())
    if record_baseline or "baseline" not in existing:
        baseline = current
    else:
        baseline = existing["baseline"]["scenarios"]

    improvement = {}
    for name in current:
        if name in baseline and baseline[name]["ops_per_sec"]:
            improvement[name] = round(
                current[name]["ops_per_sec"] / baseline[name]["ops_per_sec"], 3
            )

    sc_rate = current["monitor_traffic"]["ops_per_sec"]
    tso_rate = current["monitor_traffic_tso"]["ops_per_sec"]
    tso_factor = round(sc_rate / tso_rate, 3) if tso_rate else None
    payload = {
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "baseline": {
            "note": (
                "pre-optimisation reference (recorded with "
                "--record-baseline before the hot-path fast paths landed)"
            ),
            "scenarios": baseline,
        },
        "current": {"scenarios": current},
        # Parent-versus-change rows for kernel changes that claim a
        # speedup, timed on one host and added by hand; carried over.
        "before_after": existing.get("before_after", []),
        "improvement_vs_baseline": improvement,
        "headline": {
            name: improvement.get(name) for name in HEADLINE
        },
        # The memory-model seam is free under sc (monitor_traffic is
        # the same code path as the seed) and must stay cheap under
        # tso: slowdown bounded at 1.5x on the hottest path.
        "tso_overhead": {
            "probe": "monitor_traffic",
            "sc_ops_per_sec": sc_rate,
            "tso_ops_per_sec": tso_rate,
            "factor": tso_factor,
            "bound": 1.5,
            "ok": tso_factor is not None and tso_factor <= 1.5,
        },
    }
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")
    for name in HEADLINE:
        ratio = improvement.get(name)
        if ratio is not None:
            print(f"  headline {name}: {ratio:.2f}x vs baseline")
    if tso_factor is not None:
        verdict = "ok" if tso_factor <= 1.5 else "OVER BOUND"
        print(f"  tso overhead on monitor_traffic: {tso_factor:.2f}x "
              f"(bound 1.5x) {verdict}")
    return int(not payload["tso_overhead"]["ok"])


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
