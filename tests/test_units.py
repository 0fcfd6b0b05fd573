"""Small-unit coverage: simtime helpers, scheduler internals, errors."""

import pytest

from repro.kernel import Kernel
from repro.kernel import primitives as p
from repro.kernel.config import KernelConfig
from repro.kernel.errors import (
    Deadlock,
    ForkFailed,
    KernelError,
    KernelUsageError,
    MonitorProtocolError,
    SimThreadError,
    UncaughtThreadError,
)
from repro.kernel.simtime import fmt_time, msec, per_second, sec, usec
from repro.kernel.thread import SimThread


class TestSimtime:
    def test_conversions(self):
        assert usec(1) == 1
        assert msec(1) == 1000
        assert sec(1) == 1_000_000
        assert msec(1.5) == 1500
        assert sec(0.25) == 250_000

    def test_rounding(self):
        assert usec(1.4) == 1
        assert usec(2.6) == 3

    def test_fmt_time(self):
        assert fmt_time(1_500_000) == "1.500000s"
        assert fmt_time(0) == "0.000000s"

    def test_per_second(self):
        assert per_second(10, sec(2)) == 5.0
        assert per_second(10, 0) == 0.0
        assert per_second(0, sec(1)) == 0.0


def _thread(tid, priority=4, name=None):
    def body():
        yield None

    return SimThread(
        tid=tid, name=name or f"t{tid}", body=body(), priority=priority,
        created_at=0,
    )


def _scheduler(ncpus=1, **config):
    """A fresh kernel's scheduler, deciding through ``Kernel.decide``."""
    return Kernel(KernelConfig(ncpus=ncpus, **config)).scheduler


class TestSchedulerUnit:
    def test_make_ready_and_take_order(self):
        scheduler = _scheduler()
        a, b = _thread(1), _thread(2)
        scheduler.make_ready(a)
        scheduler.make_ready(b)
        assert scheduler.take_next(scheduler.cpus[0]) is a
        assert scheduler.take_next(scheduler.cpus[0]) is b
        assert scheduler.take_next(scheduler.cpus[0]) is None

    def test_front_insertion_for_preempted(self):
        scheduler = _scheduler()
        a, b = _thread(1), _thread(2)
        scheduler.make_ready(a)
        scheduler.make_ready(b, front=True)
        assert scheduler.take_next(scheduler.cpus[0]) is b

    def test_double_ready_is_a_bug(self):
        scheduler = _scheduler()
        a = _thread(1)
        scheduler.make_ready(a)
        with pytest.raises(AssertionError):
            scheduler.make_ready(a)

    def test_priority_ordering(self):
        scheduler = _scheduler()
        low, high = _thread(1, priority=2), _thread(2, priority=6)
        scheduler.make_ready(low)
        scheduler.make_ready(high)
        assert scheduler.highest_ready_priority() == 6
        assert scheduler.take_next(scheduler.cpus[0]) is high

    def test_would_preempt_strictness(self):
        # An event readies a thread while a priority-4 thread burns: only
        # a strictly higher priority preempts it, and fair share never
        # preempts on priority.
        def preemptions(priority, **config):
            kernel = Kernel(KernelConfig(**config))

            def body():
                yield p.Compute(msec(10))

            kernel.fork_root(body, name="runner", priority=4)
            kernel.post_at(
                msec(1),
                lambda k: k.fork_root(body, name="readied", priority=priority),
            )
            kernel.run_for(msec(30))
            count = kernel.stats.preemptions
            kernel.shutdown()
            return count

        assert preemptions(4) == 0  # equal never preempts
        assert preemptions(3) == 0
        assert preemptions(5) == 1
        assert preemptions(5, scheduler_policy="fair_share") == 0

    def test_peek_best_other_excludes(self):
        scheduler = _scheduler()
        a, b = _thread(1, priority=5), _thread(2, priority=3)
        scheduler.make_ready(a)
        scheduler.make_ready(b)
        assert scheduler.peek_best_other(a) is b
        assert scheduler.peek_best_other(b) is a

    def test_requeue_for_priority_change(self):
        scheduler = _scheduler()
        a, b = _thread(1, priority=2), _thread(2, priority=4)
        scheduler.make_ready(a)
        scheduler.make_ready(b)
        scheduler.requeue_for_priority_change(a, 6)
        assert a.priority == 6
        assert scheduler.take_next(scheduler.cpus[0]) is a

    def test_requeue_same_priority_keeps_round_robin_position(self):
        # Regression: a "change" to the thread's current priority used to
        # remove and re-append it, sending it behind same-priority peers.
        scheduler = _scheduler()
        a, b, c = _thread(1), _thread(2), _thread(3)
        for thread in (a, b, c):
            scheduler.make_ready(thread)
        scheduler.requeue_for_priority_change(a, a.priority)
        cpu = scheduler.cpus[0]
        assert [scheduler.take_next(cpu) for _ in range(3)] == [a, b, c]

    def test_peek_best_other_fair_share_routes_through_lottery(self):
        # Regression: peek_best_other always scanned strict-priority order,
        # so a fair-share donation always went to the top-priority thread
        # even though dispatch itself is a ticket lottery.
        scheduler = _scheduler(scheduler_policy="fair_share")
        caller = _thread(1, priority=4)
        high, low = _thread(2, priority=6), _thread(3, priority=1)
        scheduler.make_ready(caller)
        scheduler.make_ready(high)
        scheduler.make_ready(low)
        picks = {scheduler.peek_best_other(caller) for _ in range(400)}
        assert caller not in picks  # never donate to yourself
        assert picks == {high, low}  # low priority still wins some draws

    def test_peek_best_other_strict_ignores_rng(self):
        # Strict policy keeps the pre-knob behaviour even with an rng set.
        scheduler = _scheduler()
        a, b = _thread(1, priority=5), _thread(2, priority=3)
        scheduler.make_ready(a)
        scheduler.make_ready(b)
        assert all(scheduler.peek_best_other(b) is a for _ in range(20))

    def test_clear_donations(self):
        scheduler = _scheduler(2)
        donee = _thread(1)
        scheduler.cpus[0].donee = donee
        scheduler.cpus[1].donee = donee
        scheduler.clear_donations()
        assert all(cpu.donee is None for cpu in scheduler.cpus)

    def test_ready_threads_best_first(self):
        scheduler = _scheduler()
        threads = [_thread(i, priority=p) for i, p in enumerate([2, 6, 4], 1)]
        for thread in threads:
            scheduler.make_ready(thread)
        priorities = [t.priority for t in scheduler.ready_threads()]
        assert priorities == [6, 4, 2]


class TestErrors:
    def test_hierarchy(self):
        assert issubclass(MonitorProtocolError, KernelUsageError)
        assert issubclass(KernelUsageError, KernelError)
        assert issubclass(ForkFailed, SimThreadError)
        assert issubclass(Deadlock, KernelError)

    def test_uncaught_wraps_original(self):
        original = ValueError("inner")
        wrapped = UncaughtThreadError("worker", original)
        assert wrapped.original is original
        assert "worker" in str(wrapped)

    def test_config_validation_messages(self):
        with pytest.raises(ValueError):
            KernelConfig(quantum=0)
        with pytest.raises(ValueError):
            KernelConfig(ncpus=0)
        with pytest.raises(ValueError):
            KernelConfig(notify_semantics="later")
        with pytest.raises(ValueError):
            KernelConfig(fork_failure="shrug")
        with pytest.raises(ValueError):
            KernelConfig(switch_cost=-1)
        with pytest.raises(ValueError):
            KernelConfig(at_least_one_extra_prob=1.5)


class TestThreadUnit:
    def test_ancestry_walks_to_root(self):
        root = _thread(1, name="root")
        child = SimThread(
            tid=2, name="child", body=root.body, priority=4,
            created_at=0, parent=root,
        )
        grandchild = SimThread(
            tid=3, name="grandchild", body=root.body, priority=4,
            created_at=0, parent=child,
        )
        assert [t.name for t in grandchild.ancestry()] == ["child", "root"]
        assert grandchild.generation == 2

    def test_lifetime_none_while_alive(self):
        thread = _thread(1)
        assert thread.lifetime is None
        thread.ended_at = 500
        assert thread.lifetime == 500


class TestYieldThreadStats:
    """All three yield flavours must count in the yielder's per-thread
    stats, not just the global counters (DirectedYield regression)."""

    def _run_yielder(self, flavour):
        kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))

        def target():
            yield p.Compute(usec(10))

        def yielder():
            handle = yield p.Fork(target, priority=2, detached=True)
            if flavour == "yield":
                yield p.Yield()
            elif flavour == "ybntm":
                yield p.YieldButNotToMe()
            else:
                yield p.DirectedYield(handle)
            yield p.Compute(1)

        thread = kernel.fork_root(yielder, priority=5)
        kernel.run_for(msec(10))
        return kernel, thread

    def test_yield_counts_per_thread(self):
        kernel, thread = self._run_yielder("yield")
        assert thread.stats.yields == 1
        assert kernel.stats.yields == 1

    def test_yield_but_not_to_me_counts_per_thread(self):
        kernel, thread = self._run_yielder("ybntm")
        assert thread.stats.yields == 1
        assert kernel.stats.yields == 1

    def test_directed_yield_counts_per_thread(self):
        kernel, thread = self._run_yielder("directed")
        assert thread.stats.yields == 1
        assert kernel.stats.directed_yields == 1
        assert kernel.stats.yields == 0
