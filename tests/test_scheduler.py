"""Scheduler policy: strict priorities, preemption, round-robin, yields,
YieldButNotToMe and directed-yield donations (paper Sections 2, 5.2, 6.2,
6.3)."""

import pytest

from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestStrictPriority:
    def test_higher_priority_runs_first(self):
        kernel = make_kernel()
        order = []

        def worker(tag):
            order.append(tag)
            yield p.Compute(usec(10))

        kernel.fork_root(worker, args=("low",), priority=2)
        kernel.fork_root(worker, args=("high",), priority=6)
        kernel.fork_root(worker, args=("mid",), priority=4)
        kernel.run_for(msec(1))
        assert order == ["high", "mid", "low"]

    def test_fork_of_higher_priority_child_preempts_parent(self):
        kernel = make_kernel()
        order = []

        def child():
            order.append("child")
            yield p.Compute(usec(10))

        def parent():
            order.append("parent-before")
            yield p.Fork(child, priority=6)
            order.append("parent-after")

        kernel.fork_root(parent, priority=4)
        kernel.run_for(msec(1))
        assert order == ["parent-before", "child", "parent-after"]

    def test_fork_of_equal_priority_child_does_not_preempt(self):
        kernel = make_kernel()
        order = []

        def child():
            order.append("child")
            yield p.Compute(usec(10))

        def parent():
            yield p.Fork(child, priority=4)
            order.append("parent-after")
            yield p.Compute(usec(10))

        kernel.fork_root(parent, priority=4)
        kernel.run_for(msec(1))
        assert order == ["parent-after", "child"]

    def test_wakeup_preempts_mid_compute(self):
        kernel = make_kernel()
        stamps = []

        def background():
            yield p.Compute(msec(40))
            stamps.append(("background-done", (yield p.GetTime())))

        def urgent():
            stamps.append(("urgent-ran", (yield p.GetTime())))
            yield p.Compute(msec(1))

        kernel.fork_root(background, priority=2)
        kernel.post_at(msec(10), lambda k: k.fork_root(urgent, priority=6))
        kernel.run_for(msec(100))
        events = dict(stamps)
        assert events["urgent-ran"] == msec(10)
        # background lost 1 ms to urgent: finishes at 41 ms, not 40.
        assert events["background-done"] == msec(41)

    def test_preemption_even_while_holding_monitor(self):
        # "the scheduler will preempt the currently running thread, even
        # if it holds monitor locks."
        from repro.sync import Monitor
        from repro.kernel.primitives import Enter, Exit

        kernel = make_kernel()
        lock = Monitor("held-across-preemption")
        order = []

        def holder():
            yield Enter(lock)
            order.append("acquired")
            yield p.Compute(msec(20))
            order.append("still-holding")
            yield Exit(lock)

        def urgent():
            order.append("urgent")
            yield p.Compute(usec(10))

        kernel.fork_root(holder, priority=3)
        kernel.post_at(msec(5), lambda k: k.fork_root(urgent, priority=7))
        kernel.run_for(msec(100))
        assert order == ["acquired", "urgent", "still-holding"]
        assert kernel.stats.preemptions >= 1

    def test_set_priority_returns_previous_and_takes_effect(self):
        kernel = make_kernel()
        observed = []

        def self_demoter():
            previous = yield p.SetPriority(2)
            observed.append(previous)
            yield p.Compute(usec(10))
            observed.append("low-done")

        def other():
            yield p.Compute(usec(10))
            observed.append("mid-done")

        def main():
            yield p.Fork(self_demoter, priority=5)
            yield p.Fork(other, priority=4)
            yield p.Compute(1)

        kernel.fork_root(main, priority=6)
        kernel.run_for(msec(1))
        # The demotion takes effect *immediately*: the priority-4 thread
        # preempts before the demoter even receives SetPriority's return
        # value, so "mid-done" lands first.
        assert observed == ["mid-done", 5, "low-done"]

    def test_priority_bounds_enforced(self):
        kernel = make_kernel()

        def bad():
            yield p.SetPriority(9)

        kernel.fork_root(bad)
        from repro.kernel import KernelUsageError

        with pytest.raises(KernelUsageError):
            kernel.run_for(msec(1))


class TestRoundRobin:
    def test_equal_priority_threads_share_via_quantum(self):
        kernel = make_kernel(quantum=msec(50))
        finish = {}

        def worker(tag):
            yield p.Compute(msec(100))
            finish[tag] = yield p.GetTime()

        kernel.fork_root(worker, args=("a",))
        kernel.fork_root(worker, args=("b",))
        kernel.run_for(sec(1))
        # With rotation both finish around 200 ms, interleaved in 50 ms
        # slices — not 100 ms and 200 ms as run-to-completion would give.
        assert finish["a"] == msec(150)
        assert finish["b"] == msec(200)

    def test_execution_intervals_show_quantum_peak(self):
        kernel = make_kernel(quantum=msec(50))

        def worker():
            yield p.Compute(msec(500))

        kernel.fork_root(worker)
        kernel.fork_root(worker)
        kernel.run_for(sec(2))
        intervals = [d for d, _prio in kernel.stats.exec_intervals]
        # Rotation every 50 ms: the bulk of intervals sit at the quantum.
        quantum_like = [d for d in intervals if d == msec(50)]
        assert len(quantum_like) >= 15

    def test_no_rotation_without_competition(self):
        kernel = make_kernel(quantum=msec(50))

        def lone():
            yield p.Compute(msec(500))

        thread = kernel.fork_root(lone)
        kernel.run_for(sec(1))
        # A lone thread is never rotated: one long execution interval.
        assert kernel.stats.exec_intervals == [(msec(500), thread.priority)]

    def test_lower_priority_starves_under_strict_priority(self):
        # The behaviour that makes priority inversion "stable" (§6.2).
        kernel = make_kernel(quantum=msec(50))
        progress = []

        def hog():
            while True:
                yield p.Compute(msec(10))

        def background():
            yield p.Compute(msec(1))
            progress.append("background-ran")

        kernel.fork_root(hog, priority=5)
        kernel.fork_root(background, priority=2)
        kernel.run_for(sec(1))
        assert progress == []


class TestYields:
    def test_yield_rotates_to_equal_priority_peer(self):
        kernel = make_kernel()
        order = []

        def a():
            order.append("a1")
            yield p.Yield()
            order.append("a2")
            yield p.Compute(1)

        def b():
            order.append("b1")
            yield p.Compute(1)

        kernel.fork_root(a)
        kernel.fork_root(b)
        kernel.run_for(msec(1))
        assert order == ["a1", "b1", "a2"]

    def test_yield_does_not_cede_to_lower_priority(self):
        kernel = make_kernel()
        order = []

        def high():
            order.append("h1")
            yield p.Yield()
            order.append("h2")
            yield p.Compute(1)

        def low():
            order.append("low")
            yield p.Compute(1)

        kernel.fork_root(high, priority=5)
        kernel.fork_root(low, priority=3)
        kernel.run_for(msec(1))
        assert order == ["h1", "h2", "low"]

    def test_yield_but_not_to_me_cedes_to_lower_priority(self):
        # The §5.2 fix: "gives the processor to the highest priority ready
        # thread other than its caller, if such a thread exists."
        kernel = make_kernel()
        order = []

        def high():
            order.append("h1")
            yield p.YieldButNotToMe()
            order.append("h2")
            yield p.Compute(1)

        def low():
            order.append("low")
            yield p.Compute(usec(10))

        kernel.fork_root(high, priority=5)
        kernel.fork_root(low, priority=3)
        kernel.run_for(msec(1))
        assert order == ["h1", "low", "h2"]

    def test_yield_but_not_to_me_noop_when_alone(self):
        kernel = make_kernel()
        order = []

        def lone():
            order.append("before")
            yield p.YieldButNotToMe()
            order.append("after")

        kernel.fork_root(lone)
        kernel.run_for(msec(1))
        assert order == ["before", "after"]

    def test_donation_expires_at_tick(self):
        # "The end of a timeslice ends the effect of a YieldButNotToMe."
        kernel = make_kernel(quantum=msec(50))
        stamps = []

        def high():
            yield p.Compute(msec(10))
            yield p.YieldButNotToMe()
            stamps.append(("high-resumed", (yield p.GetTime())))
            yield p.Compute(msec(1))

        def low():
            while True:
                yield p.Compute(msec(10))

        kernel.fork_root(high, priority=5)
        kernel.fork_root(low, priority=2)
        kernel.run_for(msec(200))
        # low runs from 10 ms under the donation; at the 50 ms tick the
        # donation expires and strict priority resumes high immediately.
        assert stamps == [("high-resumed", msec(50))]

    def test_directed_yield_runs_specific_thread(self):
        kernel = make_kernel()
        order = []
        handles = {}

        def target():
            order.append("target")
            yield p.Compute(usec(10))

        def other():
            order.append("other")
            yield p.Compute(usec(10))

        def director():
            handles["t"] = yield p.Fork(target, priority=2)
            yield p.Fork(other, priority=3)
            yield p.DirectedYield(handles["t"])
            order.append("director-back")
            yield p.Compute(1)

        kernel.fork_root(director, priority=5)
        kernel.run_for(msec(1))
        # The donation picks the priority-2 target over the priority-3
        # thread; after the target blocks/finishes, strict priority rules.
        assert order[0] == "target"
        assert order[1] == "director-back"

    def test_directed_yield_to_unready_thread_is_noop(self):
        kernel = make_kernel()
        order = []

        def sleeper():
            yield p.Pause(sec(1))

        def director():
            handle = yield p.Fork(sleeper)
            yield p.Compute(usec(10))  # let the sleeper block
            yield p.DirectedYield(handle)
            order.append("director-continues")

        kernel.fork_root(director, priority=5)
        kernel.run_for(msec(100))
        assert order == ["director-continues"]


class TestMultiprocessor:
    def test_two_cpus_run_two_threads_in_parallel(self):
        kernel = make_kernel(ncpus=2)
        finish = {}

        def worker(tag):
            yield p.Compute(msec(100))
            finish[tag] = yield p.GetTime()

        kernel.fork_root(worker, args=("a",))
        kernel.fork_root(worker, args=("b",))
        kernel.run_for(sec(1))
        assert finish == {"a": msec(100), "b": msec(100)}

    def test_three_threads_two_cpus(self):
        kernel = make_kernel(ncpus=2, quantum=msec(50))
        finish = {}

        def worker(tag):
            yield p.Compute(msec(100))
            finish[tag] = yield p.GetTime()

        for tag in ("a", "b", "c"):
            kernel.fork_root(worker, args=(tag,))
        kernel.run_for(sec(1))
        # 300 ms of work on 2 CPUs: last finisher at 150 ms.
        assert max(finish.values()) == msec(150)
        assert min(finish.values()) == msec(100)


class TestLotteryPick:
    """The fair-share ticket draw (`Scheduler._lottery_pick`)."""

    class FakeThread:
        def __init__(self, name, priority):
            self.name = name
            self.priority = priority

        def __repr__(self):
            return f"<{self.name} prio={self.priority}>"

    def _scheduler(self, rng):
        scheduler = make_kernel(scheduler_policy="fair_share").scheduler
        scheduler.rng = rng
        return scheduler

    def test_seeded_draw_tracks_ticket_proportions(self):
        from repro.kernel.rng import DeterministicRng

        sched = self._scheduler(DeterministicRng(0).fork("sched"))
        threads = [
            self.FakeThread("low", 1),    # 1 ticket
            self.FakeThread("mid", 2),    # 2 tickets
            self.FakeThread("high", 3),   # 4 tickets
        ]
        wins = {"low": 0, "mid": 0, "high": 0}
        for _ in range(7000):
            wins[sched._lottery_pick(threads).name] += 1
        # Deterministic in the seed; expectation is 1000/2000/4000.
        assert wins["low"] < wins["mid"] < wins["high"]
        assert abs(wins["low"] - 1000) < 150
        assert abs(wins["mid"] - 2000) < 150
        assert abs(wins["high"] - 4000) < 150

    def test_single_candidate_consumes_no_rng_state(self):
        class CountingRng:
            def __init__(self):
                self.draws = 0

            def randint(self, low, high):
                self.draws += 1
                return low

        rng = CountingRng()
        sched = self._scheduler(rng)
        only = [self.FakeThread("solo", 3)]
        assert sched._lottery_pick(only).name == "solo"
        assert rng.draws == 0
        assert sched._lottery_pick([]) is None
        assert rng.draws == 0
