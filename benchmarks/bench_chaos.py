"""Watchdog overhead: what the waits-for sweeps cost.

Not a paper artifact — these bound the price of the incremental
waits-for watchdog on a busy interactive workload (Cedar scrolling,
the heaviest golden scenario) and pin its passivity contract: a
watchdog-on run executes the exact same schedule as a watchdog-off run
whenever nothing is reported.  The acceptance bound is <=10% wall-clock
overhead; ``test_watchdog_overhead_bound`` enforces it directly so a
regression fails in CI rather than drifting silently.
"""

import time

from repro.kernel import KernelConfig, sec
from repro.workloads import build_cedar_world
from repro.workloads.cedar import CEDAR_ACTIVITIES

RUN = sec(2)


def _run(*, watchdog, trace=False, run=RUN):
    config = KernelConfig(seed=11, watchdog=watchdog, trace=trace)
    world, context = build_cedar_world(config)
    CEDAR_ACTIVITIES["scrolling"](world, context)
    world.run_for(run)
    kernel = world.kernel
    stats = dict(vars(kernel.stats))
    stats["monitors_used"] = len(stats["monitors_used"])
    stats["cvs_used"] = len(stats["cvs_used"])
    events = list(kernel.tracer.events)
    clock = kernel.now
    checks = kernel.watchdog.checks if watchdog else 0
    reports = (
        len(kernel.watchdog.deadlocks) + len(kernel.watchdog.starvation)
        if watchdog else 0
    )
    world.shutdown()
    return stats, events, clock, checks, reports


def test_perf_watchdog_off(benchmark):
    """Baseline: the knob exists but is off — must cost nothing."""
    stats, _events, clock, _checks, _reports = benchmark(
        lambda: _run(watchdog=False)
    )
    assert clock == RUN
    assert stats["dispatches"] > 0


def test_perf_watchdog_on(benchmark):
    """Per-quantum waits-for sweeps inline with the scheduler loop."""
    _stats, _events, clock, checks, reports = benchmark(
        lambda: _run(watchdog=True)
    )
    assert clock == RUN
    assert checks > 0  # the sweeps actually ran
    assert reports == 0  # a healthy world: nothing to report


def test_watchdog_is_passive():
    """Watchdog on vs off: same stats, same trace, same clock — the
    sweeps observe, never steer."""
    off = _run(watchdog=False, trace=True)
    on = _run(watchdog=True, trace=True)
    assert on[:3] == off[:3]


def test_watchdog_overhead_bound():
    """Acceptance: watchdog-on wall clock <= 1.10x watchdog-off on Cedar
    scrolling.  A 10 s simulated run keeps each lap well clear of timer
    noise; best-of-3 on both sides sheds scheduler jitter."""
    _run(watchdog=True)  # warm imports and caches

    def best_of(n, **kwargs):
        laps = []
        for _ in range(n):
            start = time.perf_counter()
            _run(run=sec(10), **kwargs)
            laps.append(time.perf_counter() - start)
        return min(laps)

    off = best_of(3, watchdog=False)
    on = best_of(3, watchdog=True)
    ratio = on / off
    print(f"\nwatchdog overhead: off={off:.3f}s on={on:.3f}s "
          f"ratio={ratio:.3f}")
    assert ratio <= 1.10, f"watchdog overhead {ratio:.3f}x exceeds 1.10x"
