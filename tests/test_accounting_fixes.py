"""Regression tests for kernel accounting fixes.

Each test pins one historical bug:

* channel receive timeouts were invisible (no counter, no trace event);
* a deferred FORK (resource wait) resolved the child's priority with
  ``trap.priority or waiter.priority`` instead of the ``is not None``
  check the direct path uses;
* a monitor reacquisition after a wake was granted without charging
  ``monitor_overhead``, making contended acquisition cheaper than an
  uncontended Enter;
* ``Kernel.shutdown()`` marked live threads DONE without reconciling
  ``live_threads`` / ``stack_bytes`` / ``threads_finished``.
"""

import pytest

from repro.kernel import Kernel, KernelConfig, msec, usec
from repro.kernel import primitives as p
from repro.kernel.primitives import Enter, Exit, GetTime, Notify, Wait
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor


class TestChannelTimeoutAccounting:
    def test_channel_timeout_counts_and_traces(self):
        kernel = Kernel(
            KernelConfig(trace=True, switch_cost=0, monitor_overhead=0)
        )
        channel = kernel.channel("dev")
        results = []

        def waiter():
            results.append((yield p.Channelreceive(channel, timeout=msec(10))))

        kernel.fork_root(waiter)
        kernel.run_for(msec(100))
        assert results == [None]
        assert kernel.stats.channel_timeouts == 1
        assert kernel.stats.counters()["channel_timeouts"] == 1
        timeouts = [
            e
            for e in kernel.tracer.events
            if e.category == "channel" and e.kind == "timeout"
        ]
        assert len(timeouts) == 1
        assert timeouts[0].detail == "dev"

    def test_successful_receive_is_not_a_timeout(self):
        kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))
        channel = kernel.channel("dev")
        results = []

        def waiter():
            results.append((yield p.Channelreceive(channel, timeout=msec(500))))

        kernel.fork_root(waiter)
        kernel.post_at(msec(5), lambda k: channel.post("item"))
        kernel.run_for(msec(1000))
        assert results == ["item"]
        assert kernel.stats.channel_timeouts == 0


class TestDeferredForkPriority:
    @pytest.mark.parametrize("child_priority,expected", [(6, 6), (None, 4)])
    def test_deferred_fork_resolves_priority_like_direct_fork(
        self, child_priority, expected
    ):
        kernel = Kernel(
            KernelConfig(
                max_threads=2, fork_failure="wait",
                switch_cost=0, monitor_overhead=0,
            )
        )
        seen = {}

        def short_lived():
            yield p.Compute(usec(50))

        def child():
            me = yield p.GetSelf()
            seen["priority"] = me.priority
            yield p.Compute(1)

        def parent():
            yield p.Fork(short_lived, priority=2, detached=True)
            # Two live threads now: this FORK must wait for resources.
            handle = yield p.Fork(child, priority=child_priority)
            yield p.Join(handle)

        kernel.fork_root(parent, priority=4, detached=True)
        kernel.run_for(msec(10))
        assert kernel.stats.fork_waits == 1
        assert seen["priority"] == expected


class TestReacquireChargesOverhead:
    @pytest.mark.parametrize("semantics", ["deferred", "immediate"])
    def test_cv_wake_reacquire_pays_monitor_overhead(self, semantics):
        kernel = Kernel(
            KernelConfig(
                switch_cost=0,
                monitor_overhead=usec(5),
                notify_semantics=semantics,
            )
        )
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cv")
        times = {}

        def waiter():
            yield Enter(lock)            # t=0, overhead burns 0..5
            yield Wait(cv)
            times["woke"] = yield GetTime()
            yield Exit(lock)

        def notifier():
            yield Enter(lock)            # t=5, overhead burns 5..10
            yield Notify(cv)             # t=10
            yield p.Compute(usec(100))   # in-monitor work 10..110
            yield Exit(lock)             # handoff at t=110

        kernel.fork_root(waiter, priority=6)
        kernel.fork_root(notifier, priority=4)
        kernel.run_for(msec(10))
        # The waiter reacquires at t=110 and must burn the 5 us overhead
        # before resuming — under both notify semantics.  Before the fix
        # it woke at 110, i.e. the contended path was overhead-free.
        assert times["woke"] == 115

    def test_contended_enter_pays_overhead_on_grant(self):
        kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=usec(5)))
        lock = Monitor("m")
        times = {}

        def holder():
            yield Enter(lock)            # t=0, overhead burns 0..5
            yield p.Compute(usec(100))   # 5..105
            yield Exit(lock)

        def contender():
            yield Enter(lock)            # blocks at t=50
            times["acquired"] = yield GetTime()
            yield Exit(lock)

        kernel.fork_root(holder, priority=5)
        kernel.post_at(usec(50), lambda k: k.fork_root(contender, priority=6))
        kernel.run_for(msec(10))
        # Handoff happens at t=105; the grant itself costs 5 us.
        assert times["acquired"] == 110
        assert kernel.stats.ml_contended == 1


class TestShutdownReconciliation:
    def test_shutdown_reconciles_live_thread_counters(self):
        kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))

        def eternal():
            while True:
                yield p.Pause(msec(10))

        def transient():
            yield p.Compute(usec(10))

        kernel.fork_root(eternal)
        kernel.fork_root(eternal)
        kernel.fork_root(transient)
        kernel.run_for(msec(5))
        assert kernel.stats.live_threads == 2
        lifetimes_before = len(kernel.stats.lifetimes)
        kernel.shutdown()
        assert kernel.stats.live_threads == 0
        assert kernel.stats.stack_bytes == 0
        assert kernel.stats.threads_finished == kernel.stats.threads_created
        # Force-killed threads do not pollute the lifetime analysis.
        assert len(kernel.stats.lifetimes) == lifetimes_before
        # Idempotent: a second shutdown must not double-account.
        kernel.shutdown()
        assert kernel.stats.live_threads == 0
        assert kernel.stats.threads_finished == kernel.stats.threads_created
