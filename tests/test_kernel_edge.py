"""Kernel edge cases: multiprocessor scheduling, donation corners,
fork-wait ordering, trap misuse, run-boundary behaviour."""

import pytest

from repro.kernel import (
    Kernel,
    KernelConfig,
    KernelUsageError,
    msec,
    sec,
    usec,
)
from repro.kernel import primitives as p
from repro.sync import ConditionVariable, Monitor
from repro.kernel.primitives import Enter, Exit, Notify, Wait


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

    def test_post_every_start_in_past_rejected(self):
        # A past start would fire with the clock running backwards.
        kernel = make_kernel()
        kernel.run_until(msec(100))
        with pytest.raises(ValueError, match="past"):
            kernel.post_every(msec(10), lambda k: None, start=msec(20))
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
