"""The synthetic Cedar and GVX worlds: structure and dynamic shape."""

import pytest

from repro.kernel.config import KernelConfig
from repro.kernel.simtime import msec, sec
from repro.workloads.base import (
    TOUCH_COMPUTE,
    CvSleeper,
    LibraryPool,
    StageSet,
    run_activity,
)
from repro.workloads.cedar import CEDAR_ACTIVITIES, build_cedar_world
from repro.workloads.gvx import GVX_ACTIVITIES, build_gvx_world
from repro.kernel.rng import DeterministicRng


@pytest.fixture(scope="module")
def cedar_idle():
    return run_activity(
        system="Cedar", activity="idle",
        build_world=build_cedar_world, install=None,
        warmup=sec(2), window=sec(6),
    )


@pytest.fixture(scope="module")
def gvx_idle():
    return run_activity(
        system="GVX", activity="idle",
        build_world=build_gvx_world, install=None,
        warmup=sec(2), window=sec(6),
    )


class TestWorldStructure:
    def test_cedar_has_about_35_eternal_threads(self):
        world, context = build_cedar_world(KernelConfig(seed=0))
        assert 33 <= len(world.eternal_threads) <= 38
        world.shutdown()

    def test_gvx_has_22_eternal_threads(self):
        world, context = build_gvx_world(KernelConfig(seed=0))
        assert len(world.eternal_threads) == 22
        world.shutdown()

    def test_cedar_priority_levels(self):
        # Level 5 unused; 7 = Notifier; 6 = daemons (F4).
        world, context = build_cedar_world(KernelConfig(seed=0))
        priorities = [t.priority for t in world.eternal_threads]
        assert 5 not in priorities
        assert priorities.count(7) == 1
        assert priorities.count(6) == 2
        world.shutdown()

    def test_gvx_priority_levels(self):
        # Level 7 unused; 5 = input watcher; mostly level 3 (F4).
        world, context = build_gvx_world(KernelConfig(seed=0))
        priorities = [t.priority for t in world.eternal_threads]
        assert 7 not in priorities
        assert priorities.count(5) == 1
        assert priorities.count(3) >= 14
        world.shutdown()

    def test_gvx_parked_helpers_never_run(self):
        world, context = build_gvx_world(KernelConfig(seed=0))
        world.run_for(sec(5))
        parked = [t for t in world.eternal_threads if "parked" in t.name]
        assert len(parked) == 2
        for thread in parked:
            # "in fact never ran": only the initial dispatch that parked
            # them on their silent device (one switch cost, no work).
            assert thread.stats.dispatches == 1
            assert thread.stats.cpu_time <= 100
        world.shutdown()

    def test_activity_registries_complete(self):
        assert list(CEDAR_ACTIVITIES) == [
            "idle", "keyboard", "mouse", "scrolling", "formatting",
            "previewing", "make", "compile",
        ]
        assert list(GVX_ACTIVITIES) == ["idle", "keyboard", "mouse", "scrolling"]


class TestIdleShape:
    def test_cedar_idle_rates_in_band(self, cedar_idle):
        assert 0.5 <= cedar_idle.forks_per_sec <= 1.5
        assert 100 <= cedar_idle.switches_per_sec <= 180
        assert 85 <= cedar_idle.waits_per_sec <= 150
        assert 0.75 <= cedar_idle.timeout_fraction <= 0.95
        assert 250 <= cedar_idle.ml_enters_per_sec <= 550

    def test_cedar_idle_distinct_counts(self, cedar_idle):
        assert cedar_idle.distinct_cvs == 22
        assert 400 <= cedar_idle.distinct_mls <= 650

    def test_cedar_idle_thread_count_bounded(self, cedar_idle):
        # "the maximum number of threads concurrently existing in the
        # system never exceeded 41."
        assert cedar_idle.max_live_threads <= 41

    def test_gvx_idle_rates_in_band(self, gvx_idle):
        assert gvx_idle.forks_per_sec == 0
        assert 25 <= gvx_idle.switches_per_sec <= 55
        assert 20 <= gvx_idle.waits_per_sec <= 45
        assert gvx_idle.timeout_fraction >= 0.95

    def test_gvx_idle_distinct_counts(self, gvx_idle):
        assert gvx_idle.distinct_cvs == 5
        assert 30 <= gvx_idle.distinct_mls <= 60

    def test_idle_windows_are_deterministic(self, cedar_idle):
        repeat = run_activity(
            system="Cedar", activity="idle",
            build_world=build_cedar_world, install=None,
            warmup=sec(2), window=sec(6),
        )
        assert repeat.switches_per_sec == cedar_idle.switches_per_sec
        assert repeat.ml_enters_per_sec == cedar_idle.ml_enters_per_sec
        assert repeat.distinct_mls == cedar_idle.distinct_mls


class TestActivityShape:
    def test_cedar_keyboard_forks_per_keystroke(self):
        result = run_activity(
            system="Cedar", activity="keyboard",
            build_world=build_cedar_world,
            install=CEDAR_ACTIVITIES["keyboard"],
            warmup=sec(2), window=sec(6),
        )
        assert 3.5 <= result.forks_per_sec <= 6.5
        assert result.timeout_fraction < 0.7  # notifications dominate more

    def test_gvx_keyboard_never_forks(self):
        result = run_activity(
            system="GVX", activity="keyboard",
            build_world=build_gvx_world,
            install=GVX_ACTIVITIES["keyboard"],
            warmup=sec(2), window=sec(6),
        )
        assert result.forks_per_sec == 0
        assert result.ml_enters_per_sec > 800

    def test_compile_sweeps_most_monitors(self):
        result = run_activity(
            system="Cedar", activity="compile",
            build_world=build_cedar_world,
            install=CEDAR_ACTIVITIES["compile"],
            warmup=sec(2), window=sec(8),
        )
        assert result.distinct_mls > 2000
        assert result.forks_per_sec <= 0.6  # idle forking suppressed


class TestBuildingBlocks:
    def test_library_pool_touch_counts(self):
        from repro.kernel import Kernel

        kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))
        pool = LibraryPool("lib", 50, DeterministicRng(1))

        def toucher():
            yield from pool.touch(120)

        kernel.fork_root(toucher)
        kernel.run_for(sec(1))
        assert kernel.stats.ml_enters == 120
        # 120 draws over 50 monitors: high but not full coverage required.
        assert 40 <= len(kernel.stats.monitors_used) <= 50
        kernel.shutdown()

    def test_touches_of_one_monitor_share_its_traps(self):
        pool = LibraryPool("lib", 1, DeterministicRng(1))
        traps = list(pool.touch(3))  # enter, compute, exit per visit
        monitor = traps[0].monitor  # built on its first touch
        assert len(traps) == 9
        assert all(trap is monitor.enter for trap in traps[0::3])
        assert all(trap is TOUCH_COMPUTE for trap in traps[1::3])
        assert all(trap is monitor.exit for trap in traps[2::3])

    def test_pool_builds_a_monitor_on_its_first_touch(self):
        pool = LibraryPool("lib", 1000, DeterministicRng(1))
        entered = [trap.monitor for trap in list(pool.touch(5))[0::3]]
        # The draws are the ones a list of 1000 built monitors gave.
        names = [f"lib.m{i}" for i in range(1000)]
        rng = DeterministicRng(1)
        assert [m.name for m in entered] == [rng.choice(names) for _ in range(5)]
        built = {i: m for i, m in enumerate(pool.monitors) if m is not None}
        assert set(built.values()) == set(entered)
        assert all(m.name == f"lib.m{i}" for i, m in built.items())

    def test_library_pool_requires_size(self):
        with pytest.raises(ValueError):
            LibraryPool("empty", 0, DeterministicRng(1))

    def test_cv_sleeper_wakes_by_timeout_and_stimulus(self):
        from repro.kernel import Kernel

        kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))
        pool = LibraryPool("lib", 10, DeterministicRng(1))
        sleeper = CvSleeper("s", period=msec(200), pool=pool, touches=1)
        kernel.fork_root(sleeper.proc, name="s")

        def stimulator():
            from repro.kernel import primitives as p

            yield p.Pause(msec(70))
            yield from sleeper.stimulate()

        kernel.fork_root(stimulator)
        kernel.run_for(sec(1))
        # Timeout activations (tick-granular ~250 ms apart) plus the
        # stimulated early wake.
        assert sleeper.activations >= 4
        assert sleeper.cv.notifies == 1
        assert sleeper.cv.timeouts >= 3
        kernel.shutdown()

    def test_stage_set_registers_distinct_cvs(self):
        from repro.kernel import Kernel

        kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))
        stages = StageSet("pipeline", 6, wait_timeout=msec(20))

        def visitor():
            for _ in range(12):  # two full round-robin laps
                yield from stages.visit_next()

        kernel.fork_root(visitor)
        kernel.run_for(sec(3))
        assert len(kernel.stats.cvs_used) == 6
        kernel.shutdown()
