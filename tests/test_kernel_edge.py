"""Kernel edge cases: multiprocessor scheduling, donation corners,
fork-wait ordering, trap misuse, run-boundary behaviour, and a
shut-down kernel's lifetime."""

import contextlib
import dataclasses
import gc
import traceback
import weakref

import pytest

from repro.kernel import (
    Kernel,
    KernelConfig,
    KernelUsageError,
    UncaughtThreadError,
    msec,
    sec,
    usec,
)
from repro.analysis.faults import FaultPlan
from repro.explore.driver import run_schedule
from repro.explore.trace import ScheduleController
from repro.kernel import primitives as p
from repro.kernel.memory import SimVar
from repro.memmodel.litmus import litmus_scenario
from repro.sync import ConditionVariable, Monitor
from repro.kernel.primitives import Enter, Exit, Notify, Wait
from repro.workloads import (
    CEDAR_ACTIVITIES,
    GVX_ACTIVITIES,
    build_cedar_world,
    build_gvx_world,
)


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestMultiprocessor:
    def test_monitor_blocks_across_cpus(self):
        kernel = make_kernel(ncpus=2)
        lock = Monitor("m")
        overlap = []
        inside = [0]

        def worker():
            yield Enter(lock)
            try:
                inside[0] += 1
                overlap.append(inside[0])
                yield p.Compute(msec(5))
                inside[0] -= 1
            finally:
                yield Exit(lock)

        kernel.fork_root(worker)
        kernel.fork_root(worker)
        kernel.run_for(sec(1))
        assert max(overlap) == 1  # mutual exclusion holds across CPUs
        assert lock.blocks == 1   # genuine cross-CPU contention
        kernel.shutdown()

    def test_spurious_conflict_on_multiprocessor(self):
        # Birrell's original MP case: notifier keeps running on its CPU
        # holding the lock while the notifyee starts on the other CPU.
        kernel = Kernel(
            KernelConfig(
                ncpus=2, notify_semantics="immediate", switch_cost=0,
                monitor_overhead=0,
            )
        )
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cv")
        state = {"go": False}

        def waiter():
            yield Enter(lock)
            try:
                while not state["go"]:
                    yield Wait(cv)
            finally:
                yield Exit(lock)

        def notifier():
            yield p.Pause(msec(50))
            yield Enter(lock)
            try:
                state["go"] = True
                yield Notify(cv)
                yield p.Compute(msec(1))  # keep holding on this CPU
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter, priority=4)
        kernel.fork_root(notifier, priority=4)
        kernel.run_for(sec(1))
        assert kernel.stats.spurious_conflicts == 1
        kernel.shutdown()

    def test_four_cpus_scale_independent_work(self):
        kernel = make_kernel(ncpus=4)
        finish = []

        def worker():
            yield p.Compute(msec(100))
            finish.append((yield p.GetTime()))

        for _ in range(4):
            kernel.fork_root(worker)
        kernel.run_for(sec(1))
        assert finish == [msec(100)] * 4
        kernel.shutdown()

    def test_preemption_picks_one_cpu(self):
        # A single high-priority wake preempts exactly one busy CPU.
        kernel = make_kernel(ncpus=2)
        order = []

        def grinder(tag):
            yield p.Compute(msec(40))
            order.append((tag, (yield p.GetTime())))

        def urgent():
            order.append(("urgent", (yield p.GetTime())))
            yield p.Compute(msec(1))

        kernel.fork_root(grinder, ("a",), priority=3)
        kernel.fork_root(grinder, ("b",), priority=3)
        kernel.post_at(msec(10), lambda k: k.fork_root(urgent, priority=6))
        kernel.run_for(sec(1))
        done = dict(order)
        assert done["urgent"] == msec(10)
        # One grinder lost ~1 ms, the other none.
        finish_times = sorted(t for tag, t in order if tag != "urgent")
        assert finish_times == [msec(40), msec(41)]
        kernel.shutdown()


class TestDonationCorners:
    def test_ybntm_donee_finishing_returns_to_strict_priority(self):
        kernel = make_kernel()
        order = []

        def short_low():
            order.append("low")
            yield p.Compute(usec(100))
            # finishes: donation is spent

        def mid():
            order.append("mid")
            yield p.Compute(usec(100))

        def high():
            yield p.Fork(short_low, priority=2, detached=True)
            yield p.Fork(mid, priority=3, detached=True)
            yield p.YieldButNotToMe()
            order.append("high-back")
            yield p.Compute(usec(10))

        kernel.fork_root(high, priority=6)
        kernel.run_for(sec(1))
        # YBNTM picks the *highest* other (mid); when it finishes, strict
        # priority resumes the donor before the low thread.
        assert order == ["mid", "high-back", "low"]
        kernel.shutdown()

    def test_directed_yield_donation_survives_donee_yield(self):
        kernel = make_kernel(quantum=msec(50))
        order = []
        handles = {}

        def donee():
            order.append("donee-1")
            yield p.Yield()  # goes READY; donation persists until tick
            order.append("donee-2")
            yield p.Compute(usec(10))

        def director():
            handles["d"] = yield p.Fork(donee, priority=2)
            yield p.DirectedYield(handles["d"])
            order.append("director-back")
            yield p.Compute(usec(10))

        kernel.fork_root(director, priority=6)
        kernel.run_for(sec(1))
        # The donee's own Yield does not end the donation: it is re-picked.
        assert order[:2] == ["donee-1", "donee-2"]
        kernel.shutdown()

    def test_system_daemon_donation_expires_at_tick(self):
        from repro.runtime.daemon import install_system_daemon

        kernel = Kernel(KernelConfig(seed=5, quantum=msec(50)))

        def hog():
            while True:
                yield p.Compute(msec(10))

        def starved():
            while True:
                yield p.Compute(msec(10))

        kernel.fork_root(hog, priority=5, name="hog")
        low = kernel.fork_root(starved, priority=1, name="starved")
        install_system_daemon(kernel, period=msec(100))
        kernel.run_for(sec(5))
        # The starved thread gets slices, but each at most one quantum.
        assert low.stats.cpu_time > 0
        starved_runs = [
            d for d, prio in kernel.stats.exec_intervals if prio == low.priority
        ]
        assert starved_runs and max(starved_runs) <= msec(50)
        kernel.shutdown()


class TestForkWaitOrdering:
    def test_blocked_forks_complete_fifo(self):
        kernel = make_kernel(max_threads=3, fork_failure="wait")
        started = []

        def job(tag):
            started.append(tag)
            yield p.Compute(msec(10))

        def requester(tag):
            yield p.Fork(job, (tag,), detached=True)

        def spawner():
            # Fill the table (spawner + 2 jobs), then queue two more
            # requesters whose forks must wait, in order.
            yield p.Fork(job, ("a",), detached=True)
            yield p.Fork(job, ("b",), detached=True)
            yield p.Fork(job, ("c",), detached=True)
            yield p.Fork(job, ("d",), detached=True)

        kernel.fork_root(spawner)
        kernel.run_for(sec(1))
        assert started == ["a", "b", "c", "d"]
        kernel.shutdown()


class _StrayCompute(p.Compute):
    """A subclass of a real trap: the kernel has no handler for it."""


class TestTrapMisuse:
    def test_yielding_non_trap_is_usage_error(self):
        kernel = make_kernel()

        def bad():
            yield "not a trap"

        kernel.fork_root(bad)
        with pytest.raises(KernelUsageError):
            kernel.run_for(msec(1))

    @pytest.mark.parametrize(
        "trap", [p.Trap(), _StrayCompute(1)], ids=["base", "subclass"]
    )
    def test_yielding_unhandled_trap_type_is_usage_error(self, trap):
        # Handlers are looked up by exact type: the bare base and a
        # subclass of a real trap have none.
        kernel = make_kernel()

        def bad():
            yield trap

        kernel.fork_root(bad)
        with pytest.raises(KernelUsageError, match="not a kernel trap"):
            kernel.run_for(msec(1))

    def test_negative_compute_rejected_at_construction(self):
        with pytest.raises(ValueError):
            p.Compute(-1)

    def test_negative_pause_rejected(self):
        with pytest.raises(ValueError):
            p.Pause(-5)

    def test_fork_priority_bounds(self):
        kernel = make_kernel()

        def child():
            yield p.Compute(1)

        def parent():
            yield p.Fork(child, priority=0)

        kernel.fork_root(parent)
        with pytest.raises(KernelUsageError):
            kernel.run_for(msec(1))

    def test_annotate_lands_in_trace(self):
        kernel = Kernel(KernelConfig(trace=True))

        def worker():
            yield p.Annotate("checkpoint", {"step": 1})

        kernel.fork_root(worker)
        kernel.run_for(msec(1))
        notes = [e for e in kernel.tracer.events if e.category == "annotate"]
        assert len(notes) == 1
        assert notes[0].kind == "checkpoint"
        kernel.shutdown()


class TestRunBoundaries:
    def test_burst_spans_run_until_calls(self):
        kernel = make_kernel()
        stamps = []

        def worker():
            yield p.Compute(msec(30))
            stamps.append((yield p.GetTime()))

        kernel.fork_root(worker)
        kernel.run_until(msec(10))  # burst in progress at the boundary
        assert stamps == []
        kernel.run_until(msec(100))
        assert stamps == [msec(30)]
        kernel.shutdown()

    def test_channel_post_between_runs(self):
        kernel = make_kernel()
        channel = kernel.channel("ch")
        got = []

        def reader():
            while True:
                got.append((yield p.Channelreceive(channel)))

        kernel.fork_root(reader)
        kernel.run_for(msec(10))
        channel.post("between-runs")
        kernel.run_for(msec(10))
        assert got == ["between-runs"]
        kernel.shutdown()

    def test_post_at_in_past_rejected(self):
        kernel = make_kernel()
        kernel.run_until(msec(100))
        with pytest.raises(ValueError):
            kernel.post_at(msec(50), lambda k: None)
        kernel.shutdown()

    def test_revisited_boundary_instant_ticks_once(self):
        # An event that posts another event at its own instant makes the
        # loop visit 100 ms twice; only 4 boundaries pass in 200 ms.
        kernel = make_kernel(quantum=msec(50))

        def spinner():
            while True:
                yield p.Compute(msec(7))

        def napper():
            while True:
                yield p.Pause(msec(1))

        kernel.fork_root(spinner)
        kernel.fork_root(spinner)
        kernel.fork_root(napper)
        kernel.post_at(msec(100), lambda k: k.post_at(k.now, lambda k: None))
        kernel.run_for(msec(200))
        assert kernel.stats.ticks == 4
        kernel.shutdown()

    def test_zero_cost_yield_loop_raises_instead_of_hanging(self):
        # Regression for the livelock guard: with switch_cost=0 a thread
        # yielding in a tight loop never advances simulated time.  The
        # kernel must diagnose this, not spin the host CPU forever.
        kernel = make_kernel(switch_cost=0)

        def spinner():
            while True:
                yield p.Yield()

        kernel.fork_root(spinner)
        with pytest.raises(KernelUsageError, match="livelock"):
            kernel.run_for(msec(1))
        kernel.shutdown()

    def test_shutdown_is_idempotent(self):
        kernel = make_kernel()

        def spin():
            while True:
                yield p.Pause(msec(50))

        kernel.fork_root(spin)
        kernel.run_for(msec(100))
        kernel.shutdown()
        kernel.shutdown()  # second call is a no-op
        assert all(not t.alive for t in kernel.threads.values())


@contextlib.contextmanager
def collector_off():
    """Only refcounting frees objects inside the block."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def cyclic_garbage() -> list:
    """Every object the collector finds unreachable now."""
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        found = list(gc.garbage)
        gc.garbage.clear()
    finally:
        gc.set_debug(0)
    return found


#: (system, activity, build, install) for the 12 Tables 1-3 rows.
PAPER_WORLDS = [
    (system, activity, build, install)
    for system, build, activities in (
        ("cedar", build_cedar_world, CEDAR_ACTIVITIES),
        ("gvx", build_gvx_world, GVX_ACTIVITIES),
    )
    for activity, install in activities.items()
]


class TestFreedByRefcount:
    """Shutdown leaves no reference cycle among a kernel's own parts: a
    kernel that no outside cycle holds is freed the moment its last
    reference goes, with the cyclic collector switched off, and leaves
    the collector nothing to find."""

    def test_litmus_schedule_kernel(self):
        scenario, _state = litmus_scenario("iriw", "pso")
        built = []

        def build(config):
            kernel, shutdown = scenario.build(config)
            built.append(weakref.ref(kernel))
            return kernel, shutdown

        with collector_off():
            outcome = run_schedule(
                dataclasses.replace(scenario, build=build), ScheduleController()
            )
            assert not outcome.failed
            assert len(outcome.trace) > 0
            del outcome
            assert built[0]() is None
            assert gc.collect() == 0

    def test_kernel_with_every_observer(self):
        lock = Monitor("m")
        ready = ConditionVariable(lock, "ready")
        shared = SimVar("x", 0)
        seen = []

        def child():
            yield Enter(lock)
            try:
                yield p.MemWrite(shared, 1)
                yield Notify(ready)
            finally:
                yield Exit(lock)
            return "done"

        def parent():
            kid = yield p.Fork(child)
            yield Enter(lock)
            try:
                yield Wait(ready, msec(5))
                seen.append((yield p.MemRead(shared)))
            finally:
                yield Exit(lock)
            seen.append((yield p.Join(kid)))

        with collector_off():
            kernel = Kernel(KernelConfig(
                watchdog=True, race_detection=True, fault_plan=FaultPlan(),
            ))
            kernel.fork_root(parent)
            kernel.run_for(msec(50))
            assert seen == [1, "done"]
            assert not any(t.alive for t in kernel.threads.values())
            assert kernel.race_detector.races == []
            kernel.shutdown()
            ref = weakref.ref(kernel)
            del kernel
            assert ref() is None
            assert gc.collect() == 0

    @pytest.mark.parametrize("handed_an_item", [False, True])
    def test_kernel_with_a_channel_receiver(self, handed_an_item):
        """Shutdown closes a thread blocked in a channel receive, or one
        handed an item it has not resumed to see; neither leaves a link
        through the channel back to the kernel."""
        received = []
        with collector_off():
            kernel = make_kernel()
            net = kernel.channel("net")

            def listener():
                while True:
                    received.append((yield p.Channelreceive(net)))

            thread = kernel.fork_root(listener)
            kernel.run_for(msec(5))
            if handed_an_item:
                net.post("request")
                assert thread.pending_channel is net
            else:
                assert net.waiters[0] is thread
            kernel.shutdown()
            assert received == []
            ref = weakref.ref(kernel)
            del kernel, net, thread
            assert ref() is None
            assert gc.collect() == 0

    @pytest.mark.parametrize(
        "build,install",
        [(build, install) for _, _, build, install in PAPER_WORLDS],
        ids=[f"{system}-{activity}" for system, activity, _, _ in PAPER_WORLDS],
    )
    def test_paper_table_world(self, build, install):
        """A finished Cedar or GVX world, its context included, is freed
        by refcount.  What the collector may still find is each entered
        monitor's cycle with its two shared traps (and the monitor's
        entry queue), which holds no thread, world or kernel."""
        with collector_off():
            world, context = build(KernelConfig(seed=0))
            if install is not None:
                install(world, context)
            world.run_for(sec(1))
            world.shutdown()
            refs = [weakref.ref(world.kernel), weakref.ref(context)]
            del world, context
            assert [ref() for ref in refs] == [None, None]
            garbage = cyclic_garbage()
        queues = {id(o.entry_queue) for o in garbage if type(o) is Monitor}
        strays = [
            o for o in garbage
            if type(o) not in (Monitor, Enter, Exit) and id(o) not in queues
        ]
        assert strays == []

    def test_kernel_with_monitor_and_cv_waiters(self):
        """Shutdown takes each thread it closes out of the monitor it
        holds, the entry queue it waits in and the CV it waits on, so an
        entered monitor's cycle with its traps holds no thread."""
        lock = Monitor("m")
        ready = ConditionVariable(lock, "ready")

        def holder():
            yield lock.enter
            try:
                yield p.Pause(sec(1))
            finally:
                yield lock.exit

        def waiter():
            yield lock.enter
            try:
                yield Wait(ready)
            finally:
                yield lock.exit

        with collector_off():
            kernel = make_kernel()
            for body in (waiter, holder, holder):
                kernel.fork_root(body)
            kernel.run_for(msec(10))
            assert [t.state.value for t in kernel.threads.values()] == [
                "waiting-cv", "sleeping", "blocked-monitor",
            ]
            kernel.shutdown()
            assert lock.owner is None
            assert not lock.entry_queue and not ready.waiters
            assert not any(t.held_monitors for t in kernel.threads.values())
            ref = weakref.ref(kernel)
            del kernel
            assert ref() is None
            del lock, ready
            garbage = cyclic_garbage()
        assert sorted(type(o).__name__ for o in garbage) == [
            "Enter", "Exit", "Monitor", "deque",
        ]

    @pytest.mark.parametrize("pending", ["periodic-event", "parked-fork"])
    def test_kernel_with_pending_work(self, pending):
        """Shutdown drops pending events, ``post_every``'s included, and
        parked FORKs: what they would run may reach back into the kernel
        (a device channel here)."""
        received = []
        with collector_off():
            kernel = make_kernel(max_threads=2)
            net = kernel.channel("net")

            def listener(channel):
                while True:
                    received.append((yield p.Channelreceive(channel)))

            def forker():
                yield p.Fork(listener, (net,))  # parks: no thread left

            kernel.fork_root(listener, (net,))
            if pending == "periodic-event":
                kernel.post_every(msec(10), lambda k: net.post("tick"))
            else:
                kernel.fork_root(forker)
            kernel.run_for(msec(35))
            if pending == "periodic-event":
                assert received == ["tick"] * 3
            else:
                assert kernel.stats.fork_waits == 1
            kernel.shutdown()
            ref = weakref.ref(kernel)
            del kernel, net
            assert ref() is None
            assert gc.collect() == 0

    @pytest.mark.parametrize("death", ["killed", "raised"])
    def test_kernel_with_a_crashed_thread(self, death):
        """A thread that died of an exception keeps its error and the
        error's traceback, but neither holds the kernel: the kernel's
        own frame that caught the error is not in the traceback, and
        shutdown clears the locals of the body's frames, which here
        reach the kernel through a device channel."""
        with collector_off():
            kernel = make_kernel()
            net = kernel.channel("net")

            def looper(channel):
                while True:
                    yield p.Compute(msec(1))

            def crasher(channel):
                yield p.Compute(msec(1))
                raise ValueError("crashed")

            def joiner(child):
                try:
                    yield p.Join((yield p.Fork(child, (net,))))
                except UncaughtThreadError:
                    pass

            if death == "killed":
                victim = kernel.fork_root(looper, (net,))
                kernel.post_at(msec(3), lambda k: k._inject_kill(victim))
            else:
                kernel.fork_root(joiner, (crasher,))
            kernel.run_for(msec(10))
            [dead] = [t for t in kernel.threads.values() if t.error is not None]
            kernel.shutdown()
            frames = traceback.extract_tb(dead.error.__traceback__)
            assert [frame.name for frame in frames][:1] == [
                "looper" if death == "killed" else "crasher"
            ]
            ref = weakref.ref(kernel)
            del kernel, net, dead
            if death == "killed":
                del victim
            assert ref() is None
            assert gc.collect() == 0
