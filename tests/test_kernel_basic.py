"""Core kernel behaviour: fork/join, time, compute, detach, errors."""

import pytest

from repro.kernel import (
    Deadlock,
    ForkFailed,
    JoinProtocolError,
    Kernel,
    KernelConfig,
    KernelUsageError,
    ThreadState,
    UncaughtThreadError,
    msec,
    sec,
    usec,
)
from repro.kernel import primitives as p


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestForkJoin:
    def test_root_thread_runs_and_returns(self):
        kernel = make_kernel()

        def main():
            yield p.Compute(usec(100))
            return 42

        thread = kernel.fork_root(main)
        kernel.run_for(msec(1))
        assert thread.result == 42
        assert thread.state is ThreadState.DONE

    def test_join_returns_child_result(self):
        kernel = make_kernel()
        seen = []

        def child(value):
            yield p.Compute(usec(10))
            return value * 2

        def parent():
            handle = yield p.Fork(child, args=(21,))
            result = yield p.Join(handle)
            seen.append(result)

        kernel.fork_root(parent)
        kernel.run_for(msec(1))
        assert seen == [42]

    def test_join_on_already_finished_child(self):
        kernel = make_kernel()
        seen = []

        def child():
            return "done"
            yield  # pragma: no cover - makes this a generator

        def parent():
            handle = yield p.Fork(child)
            yield p.Compute(usec(500))  # child finishes long before the join
            seen.append((yield p.Join(handle)))

        kernel.fork_root(parent)
        kernel.run_for(msec(5))
        assert seen == ["done"]

    def test_join_twice_is_an_error(self):
        kernel = make_kernel()

        def child():
            yield p.Compute(1)

        def parent():
            handle = yield p.Fork(child)
            yield p.Join(handle)
            yield p.Join(handle)

        kernel.fork_root(parent)
        with pytest.raises(JoinProtocolError):
            kernel.run_for(msec(1))

    def test_join_detached_thread_is_an_error(self):
        kernel = make_kernel()

        def child():
            yield p.Compute(1)

        def parent():
            handle = yield p.Fork(child, detached=True)
            yield p.Join(handle)

        kernel.fork_root(parent)
        with pytest.raises(JoinProtocolError):
            kernel.run_for(msec(1))

    def test_self_join_is_an_error(self):
        kernel = make_kernel()

        def narcissist():
            me = yield p.GetSelf()
            yield p.Join(me)

        kernel.fork_root(narcissist)
        with pytest.raises(JoinProtocolError):
            kernel.run_for(msec(1))

    def test_child_exception_reraised_at_join(self):
        kernel = make_kernel()

        def child():
            yield p.Compute(1)
            raise ValueError("boom")

        caught = []

        def parent():
            handle = yield p.Fork(child)
            try:
                yield p.Join(handle)
            except UncaughtThreadError as error:
                caught.append(error)

        kernel.fork_root(parent)
        kernel.run_for(msec(1))
        assert len(caught) == 1
        assert isinstance(caught[0].original, ValueError)

    def test_unjoined_error_propagates_at_end_of_run(self):
        kernel = make_kernel()

        def dies():
            yield p.Compute(1)
            raise RuntimeError("unobserved")

        kernel.fork_root(dies)
        with pytest.raises(UncaughtThreadError):
            kernel.run_for(msec(1))

    def test_each_run_raises_one_pending_error(self):
        kernel = make_kernel()

        def dies(tag):
            yield p.Compute(1)
            raise RuntimeError(tag)

        kernel.fork_root(dies, ("first",), name="first")
        kernel.fork_root(dies, ("second",), name="second")
        with pytest.raises(UncaughtThreadError) as first:
            kernel.run_for(msec(1))
        assert first.value.thread_name == "first"
        with pytest.raises(UncaughtThreadError) as second:
            kernel.run_for(msec(1))
        assert second.value.thread_name == "second"
        assert str(second.value.original) == "second"
        kernel.run_for(msec(1))
        assert kernel.pending_thread_errors == []

    def test_fork_inherits_parent_priority(self):
        kernel = make_kernel()
        priorities = []

        def child():
            me = yield p.GetSelf()
            priorities.append(me.priority)

        def parent():
            yield p.Fork(child)

        kernel.fork_root(parent, priority=6)
        kernel.run_for(msec(1))
        assert priorities == [6]

    def test_generation_tracking(self):
        kernel = make_kernel()

        def grandchild():
            yield p.Compute(1)

        def child():
            yield p.Fork(grandchild)

        def parent():
            yield p.Fork(child)

        kernel.fork_root(parent)
        kernel.run_for(msec(1))
        generations = {r.name.split("#")[0]: r.generation
                       for r in kernel.stats.thread_log}
        assert generations == {"parent": 0, "child": 1, "grandchild": 2}

    def test_non_generator_proc_rejected(self):
        kernel = make_kernel()

        def not_a_generator():
            return 1

        with pytest.raises(KernelUsageError):
            kernel.fork_root(not_a_generator)


class TestTimeAndCompute:
    def test_compute_advances_simulated_time(self):
        kernel = make_kernel()
        stamps = []

        def main():
            t0 = yield p.GetTime()
            yield p.Compute(usec(250))
            t1 = yield p.GetTime()
            stamps.append((t0, t1))

        kernel.fork_root(main)
        kernel.run_for(msec(1))
        (t0, t1), = stamps
        assert t1 - t0 == usec(250)

    def test_computes_accumulate(self):
        kernel = make_kernel()

        def main():
            for _ in range(10):
                yield p.Compute(usec(100))

        thread = kernel.fork_root(main)
        kernel.run_for(msec(10))
        assert thread.stats.cpu_time == usec(1000)

    def test_zero_compute_is_instant(self):
        kernel = make_kernel()
        stamps = []

        def main():
            t0 = yield p.GetTime()
            yield p.Compute(0)
            stamps.append((yield p.GetTime()) - t0)

        kernel.fork_root(main)
        kernel.run_for(msec(1))
        assert stamps == [0]

    def test_run_until_does_not_go_backwards(self):
        kernel = make_kernel()
        kernel.run_until(msec(10))
        with pytest.raises(ValueError):
            kernel.run_until(msec(5))

    def test_clock_advances_to_t_end_when_idle(self):
        kernel = make_kernel()
        end = kernel.run_until(sec(3))
        assert end == sec(3)
        assert kernel.now == sec(3)

    def test_switch_cost_is_charged(self):
        kernel = make_kernel(switch_cost=usec(40))
        stamps = []

        def main():
            stamps.append((yield p.GetTime()))

        kernel.fork_root(main)
        kernel.run_for(msec(1))
        # The thread's first instruction runs only after the switch burst.
        assert stamps == [usec(40)]


class TestPauseAndTicks:
    def test_pause_wakes_at_tick_granularity(self):
        kernel = make_kernel(quantum=msec(50))
        stamps = []

        def sleeper():
            yield p.Pause(msec(60))
            stamps.append((yield p.GetTime()))

        kernel.fork_root(sleeper)
        kernel.run_for(msec(500))
        # deadline 60 ms -> first tick at or after it is 100 ms.
        assert stamps == [msec(100)]

    def test_pause_zero_sleeps_to_next_tick(self):
        kernel = make_kernel(quantum=msec(50))
        stamps = []

        def sleeper():
            yield p.Compute(msec(10))
            yield p.Pause(0)
            stamps.append((yield p.GetTime()))

        kernel.fork_root(sleeper)
        kernel.run_for(msec(500))
        assert stamps == [msec(50)]

    def test_pause_exactly_on_tick_boundary(self):
        kernel = make_kernel(quantum=msec(50))
        stamps = []

        def sleeper():
            yield p.Pause(msec(100))
            stamps.append((yield p.GetTime()))

        kernel.fork_root(sleeper)
        kernel.run_for(msec(500))
        assert stamps == [msec(100)]

    def test_smaller_quantum_gives_finer_wakeups(self):
        kernel = make_kernel(quantum=msec(20))
        stamps = []

        def sleeper():
            yield p.Pause(msec(25))
            stamps.append((yield p.GetTime()))

        kernel.fork_root(sleeper)
        kernel.run_for(msec(500))
        assert stamps == [msec(40)]


class TestDetachAndForkFailure:
    def test_detach_allows_resource_recovery(self):
        kernel = make_kernel()

        def child():
            yield p.Compute(1)

        def parent():
            handle = yield p.Fork(child)
            yield p.Detach(handle)

        kernel.fork_root(parent)
        kernel.run_for(msec(1))
        assert kernel.stats.live_threads == 0
        assert kernel.stats.stack_bytes == 0

    def test_fork_failure_raise_policy(self):
        kernel = make_kernel(max_threads=2, fork_failure="raise")
        outcomes = []

        def busy():
            yield p.Pause(sec(1))

        def parent():
            yield p.Fork(busy, detached=True)  # fills the table (parent + 1)
            try:
                yield p.Fork(busy, detached=True)
            except ForkFailed:
                outcomes.append("failed")

        kernel.fork_root(parent)
        kernel.run_for(msec(10))
        assert outcomes == ["failed"]
        assert kernel.stats.fork_failures == 1

    def test_fork_failure_wait_policy_blocks_until_slot_frees(self):
        kernel = make_kernel(max_threads=2, fork_failure="wait")
        stamps = []

        def short_lived():
            yield p.Compute(msec(10))

        def second():
            yield p.Compute(1)

        def parent():
            yield p.Fork(short_lived, detached=True)
            handle = yield p.Fork(second)  # must wait ~10 ms for the slot
            stamps.append((yield p.GetTime()))
            yield p.Join(handle)

        kernel.fork_root(parent)
        kernel.run_for(msec(100))
        assert kernel.stats.fork_waits == 1
        assert stamps and stamps[0] >= msec(10)

    def test_stack_reservation_accounting(self):
        kernel = make_kernel(stack_reservation=100 * 1024)

        def sleeper():
            yield p.Pause(sec(10))

        for _ in range(5):
            kernel.fork_root(sleeper)
        kernel.run_for(msec(1))
        assert kernel.stats.stack_bytes == 5 * 100 * 1024
        assert kernel.stats.max_stack_bytes == 5 * 100 * 1024


class TestDeadlockDetection:
    def test_channel_wait_is_not_a_deadlock(self):
        # Device channels are the external boundary: a thread parked on
        # one is an idle server, not a wedge — host code may post later.
        kernel = make_kernel()
        silent = kernel.channel("not-posted-yet")
        received = []

        def waiter():
            received.append((yield p.Channelreceive(silent)))

        thread = kernel.fork_root(waiter)
        kernel.run_for(sec(1))  # must not raise
        assert thread.state is ThreadState.RECEIVING
        silent.post("late-arrival")
        kernel.run_for(msec(10))
        assert received == ["late-arrival"]

    def test_mutual_join_deadlock(self):
        kernel = make_kernel()
        handles = {}

        def second():
            yield p.Join(handles["first"])

        def first():
            handles["first"] = yield p.GetSelf()
            child = yield p.Fork(second)
            yield p.Join(child)  # child is joining us: classic deadlock

        kernel.fork_root(first, detached=False)
        with pytest.raises(Deadlock) as excinfo:
            kernel.run_for(sec(1))
        assert "joining" in str(excinfo.value)

    def test_no_deadlock_when_all_threads_finish(self):
        kernel = make_kernel()

        def quick():
            yield p.Compute(1)

        kernel.fork_root(quick)
        kernel.run_for(sec(1))
        assert kernel.stats.live_threads == 0


class TestDeterminism:
    def test_same_seed_same_trace(self):
        def build_and_run(seed):
            kernel = Kernel(KernelConfig(seed=seed, trace=True))
            results = []

            def worker(n):
                yield p.Compute(usec(100 + n))
                yield p.Yield()
                yield p.Compute(usec(50))
                return n

            def main():
                handles = []
                for n in range(5):
                    handles.append((yield p.Fork(worker, args=(n,))))
                for handle in handles:
                    results.append((yield p.Join(handle)))

            kernel.fork_root(main)
            kernel.run_for(msec(100))
            trace = [(e.time, e.category, e.kind, e.thread)
                     for e in kernel.tracer.events]
            return results, trace

        first = build_and_run(7)
        second = build_and_run(7)
        assert first == second
