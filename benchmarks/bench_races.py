"""Race-detector overhead: what turning the observer on costs.

Not a paper artifact — these bound the price of running the Eraser
lockset + happens-before detector inline with the trap handlers, and pin
the passivity contract: a detector-off run is byte-identical to a run on
a kernel that predates the knob, and a detector-on run executes the
exact same schedule.
"""

from repro.kernel import Kernel, KernelConfig, SimVar, msec
from repro.kernel import primitives as p
from repro.kernel.instrumentation import CAT_RACE
from repro.sync.monitor import Monitor


def _memory_workload(kernel, *, rounds=2_000):
    """Two threads hammering a monitor-protected SimVar plus private ones."""
    lock = Monitor("hot")
    shared = SimVar("shared", initial=0)

    def worker(scratch_name):
        scratch = SimVar(scratch_name, initial=0)
        for n in range(rounds):
            yield p.Enter(lock)
            value = yield p.MemRead(shared)
            yield p.MemWrite(shared, value + 1)
            yield p.Exit(lock)
            yield p.MemWrite(scratch, n)

    kernel.fork_root(worker, ("scratch-a",), name="a")
    kernel.fork_root(worker, ("scratch-b",), name="b")
    kernel.run_for(msec(600))


def _run(race_detection, *, trace=False):
    kernel = Kernel(KernelConfig(
        seed=11, switch_cost=0, monitor_overhead=0,
        race_detection=race_detection, trace=trace,
    ))
    _memory_workload(kernel)
    stats = dict(vars(kernel.stats))
    # Monitor/CV uids come from process-global counters, so two otherwise
    # identical runs see different uid *values*; the counts are invariant.
    stats["monitors_used"] = len(stats["monitors_used"])
    stats["cvs_used"] = len(stats["cvs_used"])
    events = [e for e in kernel.tracer.events if e.category != CAT_RACE]
    clock = kernel.now
    kernel.shutdown()
    return stats, events, clock


def test_perf_detector_off(benchmark):
    """Baseline: the knob exists but is off — must cost nothing."""
    stats, _events, _clock = benchmark(lambda: _run(False))
    assert stats["ml_enters"] == 4_000


def test_perf_detector_on(benchmark):
    """The detector inline with every trap handler."""
    kernel_stats, _events, _clock = benchmark(lambda: _run(True))
    assert kernel_stats["ml_enters"] == 4_000


def test_detector_off_is_byte_identical():
    """race_detection=False must not perturb anything: same stats, same
    trace, same final clock as a default-config run."""
    default = Kernel(KernelConfig(seed=11, switch_cost=0, monitor_overhead=0,
                                  trace=True))
    _memory_workload(default)
    stats = dict(vars(default.stats))
    stats["monitors_used"] = len(stats["monitors_used"])
    stats["cvs_used"] = len(stats["cvs_used"])
    base = (stats, list(default.tracer.events), default.now)
    default.shutdown()
    assert base == _run(False, trace=True)


def test_detector_on_runs_the_same_schedule():
    """The detector observes, never steers: enabling it changes no stats,
    no non-race trace events, and no clock."""
    off = _run(False, trace=True)
    on = _run(True, trace=True)
    assert on == off
