"""Monitors and condition variables: Mesa semantics (paper Section 2),
spurious lock conflicts (Section 6.1), timeout granularity (Section 6.3)."""

import dataclasses

import pytest

from repro.kernel import (
    Kernel,
    KernelConfig,
    MonitorProtocolError,
    UncaughtThreadError,
    msec,
    sec,
    usec,
)
from repro.kernel import primitives as p
from repro.kernel.primitives import Broadcast, Enter, Exit, Notify, Wait
from repro.sync import (
    BoundedQueue,
    ConditionVariable,
    Monitor,
    UnboundedQueue,
    await_condition,
    entered,
    monitored,
)
from repro.sync.monitor import MonitoredModule


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestMonitorMutualExclusion:
    def test_only_one_thread_inside(self):
        kernel = make_kernel()
        lock = Monitor("m")
        inside = []
        max_inside = []

        def worker(tag):
            yield Enter(lock)
            try:
                inside.append(tag)
                max_inside.append(len(inside))
                yield p.Compute(usec(100))
                inside.remove(tag)
            finally:
                yield Exit(lock)

        for tag in range(5):
            kernel.fork_root(worker, args=(tag,))
        kernel.run_for(msec(10))
        assert max(max_inside) == 1
        assert kernel.stats.ml_enters == 5

    def test_fifo_handoff_order(self):
        kernel = make_kernel()
        lock = Monitor("m")
        order = []

        def worker(tag):
            yield Enter(lock)
            try:
                order.append(tag)
                yield p.Compute(usec(50))
            finally:
                yield Exit(lock)

        for tag in range(4):
            kernel.fork_root(worker, args=(tag,))
        kernel.run_for(msec(10))
        assert order == [0, 1, 2, 3]

    def test_contention_is_counted(self):
        # On a uniprocessor contention needs the holder to leave the CPU
        # while holding — here it sleeps inside the monitor.
        kernel = make_kernel()
        lock = Monitor("m")

        def holder():
            yield Enter(lock)
            try:
                yield p.Pause(msec(100))
            finally:
                yield Exit(lock)

        def contender():
            yield p.Pause(msec(50))  # arrive while the holder sleeps
            yield Enter(lock)
            yield Exit(lock)

        kernel.fork_root(holder)
        kernel.fork_root(contender)
        kernel.run_for(sec(1))
        assert lock.blocks == 1
        assert kernel.stats.ml_contended == 1
        assert kernel.stats.ml_enters == 2

    def test_no_contention_for_uncontended_short_sections(self):
        # The common case in the paper: contention on 0.01%-0.1% of
        # entries, because critical sections are short and uniprocessor
        # scheduling rarely interleaves them.
        kernel = make_kernel()
        lock = Monitor("m")

        def worker():
            for _ in range(50):
                yield Enter(lock)
                yield p.Compute(usec(5))
                yield Exit(lock)
                yield p.Compute(usec(20))

        kernel.fork_root(worker)
        kernel.fork_root(worker)
        kernel.run_for(sec(1))
        assert kernel.stats.ml_enters == 100
        assert lock.blocks == 0

    def test_reentry_is_an_error(self):
        kernel = make_kernel()
        lock = Monitor("m")

        def worker():
            yield Enter(lock)
            yield Enter(lock)

        kernel.fork_root(worker)
        with pytest.raises(MonitorProtocolError):
            kernel.run_for(msec(1))

    def test_exit_without_hold_is_an_error(self):
        kernel = make_kernel()
        lock = Monitor("m")

        def worker():
            yield Exit(lock)

        kernel.fork_root(worker)
        with pytest.raises(MonitorProtocolError):
            kernel.run_for(msec(1))

    def test_finishing_while_holding_is_an_error(self):
        kernel = make_kernel()
        lock = Monitor("m")

        def worker():
            yield Enter(lock)
            # finishes without Exit

        kernel.fork_root(worker)
        with pytest.raises(MonitorProtocolError):
            kernel.run_for(msec(1))

    def test_exception_unwinding_releases_via_finally(self):
        kernel = make_kernel()
        lock = Monitor("m")
        order = []

        def dies():
            result = yield from entered(lock, _raise_inside())
            return result

        def _raise_inside():
            yield p.Compute(usec(10))
            raise ValueError("inside monitor")

        def survivor():
            yield Enter(lock)
            order.append("survivor-acquired")
            yield Exit(lock)

        kernel.fork_root(dies)
        kernel.fork_root(survivor)
        with pytest.raises(UncaughtThreadError):
            kernel.run_for(msec(10))
        assert order == ["survivor-acquired"]
        assert lock.owner is None

    def test_monitored_module_decorator(self):
        kernel = make_kernel()

        class Counter(MonitoredModule):
            def __init__(self):
                super().__init__("Counter")
                self.value = 0

            @monitored
            def increment(self):
                before = self.value
                yield p.Compute(usec(10))  # a preemption window
                self.value = before + 1
                return self.value

        counter = Counter()
        results = []

        def worker():
            for _ in range(10):
                results.append((yield from counter.increment()))

        kernel.fork_root(worker)
        kernel.fork_root(worker)
        kernel.run_for(msec(10))
        # Mutual exclusion makes the read-modify-write atomic: all 20
        # increments land despite the compute window inside.
        assert counter.value == 20
        assert sorted(results) == list(range(1, 21))


class TestSharedTraps:
    def test_monitor_hands_out_one_enter_and_one_exit(self):
        lock = Monitor("m")
        assert lock.enter is lock.enter
        assert lock.exit is lock.exit
        assert lock.enter == Enter(lock)
        assert lock.exit == Exit(lock)

    def test_shared_traps_stay_frozen(self):
        lock = Monitor("m")
        for trap in (lock.enter, lock.exit):
            with pytest.raises(dataclasses.FrozenInstanceError):
                trap.monitor = Monitor("other")
        assert lock.enter.monitor is lock
        assert lock.exit.monitor is lock


class TestEntryQueue:
    def test_uncontended_monitor_has_no_entry_queue(self):
        kernel = make_kernel()
        lock = Monitor("m")

        def user():
            for _ in range(3):
                yield lock.enter
                yield p.Compute(usec(10))
                yield lock.exit

        kernel.fork_root(user)
        kernel.fork_root(user)
        kernel.run_for(msec(1))
        assert (kernel.stats.ml_enters, lock.blocks) == (6, 0)
        assert lock.entry_queue is None

    def test_contended_entries_still_hand_off_in_fifo_order(self):
        kernel = make_kernel()
        lock = Monitor("m")
        order = []

        def holder():
            yield lock.enter
            yield p.Pause(msec(100))  # the others queue meanwhile
            yield lock.exit

        def contender(name):
            yield lock.enter
            order.append(name)
            yield lock.exit

        kernel.fork_root(holder)
        for name in ("a", "b", "c"):
            kernel.fork_root(contender, (name,), name=name)
        kernel.run_for(sec(1))
        assert order == ["a", "b", "c"]
        assert lock.blocks == 3
        assert lock.entry_queue is not None and not lock.entry_queue


class TestConditionVariables:
    def test_notify_wakes_exactly_one(self):
        kernel = make_kernel()
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond")
        woken = []

        def waiter(tag):
            yield Enter(lock)
            try:
                yield Wait(cv)
                woken.append(tag)
            finally:
                yield Exit(lock)

        def notifier():
            yield p.Pause(msec(50))  # let both waiters park
            yield Enter(lock)
            try:
                yield Notify(cv)
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter, args=("a",))
        thread_b = kernel.fork_root(waiter, args=("b",))
        kernel.fork_root(notifier)
        kernel.run_for(sec(2))
        # Exactly-one-waiter-wakens: "b" is still parked on the CV.
        assert woken == ["a"]
        from repro.kernel import ThreadState

        assert thread_b.state is ThreadState.WAITING_CV

    def test_broadcast_wakes_everyone(self):
        kernel = make_kernel()
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond")
        woken = []

        def waiter(tag):
            yield Enter(lock)
            try:
                yield Wait(cv)
                woken.append(tag)
            finally:
                yield Exit(lock)

        def broadcaster():
            yield p.Pause(msec(50))
            yield Enter(lock)
            try:
                yield Broadcast(cv)
            finally:
                yield Exit(lock)

        for tag in range(3):
            kernel.fork_root(waiter, args=(tag,))
        kernel.fork_root(broadcaster)
        kernel.run_for(sec(1))
        assert sorted(woken) == [0, 1, 2]

    def test_wait_without_monitor_is_an_error(self):
        kernel = make_kernel()
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond")

        def bad():
            yield Wait(cv)

        kernel.fork_root(bad)
        with pytest.raises(MonitorProtocolError):
            kernel.run_for(msec(1))

    def test_notify_without_monitor_is_an_error(self):
        kernel = make_kernel()
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond")

        def bad():
            yield Notify(cv)

        kernel.fork_root(bad)
        with pytest.raises(MonitorProtocolError):
            kernel.run_for(msec(1))

    def test_wait_releases_monitor_while_waiting(self):
        kernel = make_kernel()
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond")
        order = []

        def waiter():
            yield Enter(lock)
            try:
                order.append("waiting")
                yield Wait(cv)
                order.append("woken")
            finally:
                yield Exit(lock)

        def visitor():
            yield p.Pause(msec(50))
            yield Enter(lock)
            try:
                order.append("visitor-inside")  # only possible if released
                yield Notify(cv)
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter)
        kernel.fork_root(visitor)
        kernel.run_for(sec(1))
        assert order == ["waiting", "visitor-inside", "woken"]

    def test_wait_timeout_at_tick_granularity(self):
        kernel = make_kernel(quantum=msec(50))
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond", timeout=msec(60))
        stamps = []

        def waiter():
            yield Enter(lock)
            try:
                notified = yield Wait(cv)
                stamps.append((notified, (yield p.GetTime())))
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter)
        kernel.run_for(sec(1))
        # 60 ms deadline -> wakes at the 100 ms tick, notified=False.
        assert stamps == [(False, msec(100))]
        assert cv.timeouts == 1
        assert kernel.stats.cv_timeouts == 1

    def test_per_wait_timeout_overrides_cv_default(self):
        kernel = make_kernel(quantum=msec(50))
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond", timeout=sec(10))
        stamps = []

        def waiter():
            yield Enter(lock)
            try:
                yield Wait(cv, timeout=msec(10))
                stamps.append((yield p.GetTime()))
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter)
        kernel.run_for(sec(1))
        assert stamps == [msec(50)]

    def test_notified_wait_returns_true_and_cancels_timeout(self):
        kernel = make_kernel(quantum=msec(50))
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond", timeout=msec(200))
        results = []

        def waiter():
            yield Enter(lock)
            try:
                results.append((yield Wait(cv)))
            finally:
                yield Exit(lock)

        def notifier():
            yield p.Pause(msec(50))
            yield Enter(lock)
            try:
                yield Notify(cv)
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter)
        kernel.fork_root(notifier)
        kernel.run_for(sec(1))
        assert results == [True]
        assert cv.timeouts == 0

    def test_await_condition_rechecks_predicate(self):
        # WAIT-in-a-WHILE-loop: a notify with the condition still false
        # must not let the consumer proceed.
        kernel = make_kernel()
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond")
        state = {"ready": False}
        outcomes = []

        def consumer():
            yield Enter(lock)
            try:
                yield from await_condition(cv, lambda: state["ready"])
                outcomes.append(state["ready"])
            finally:
                yield Exit(lock)

        def false_notifier():
            yield p.Pause(msec(50))
            yield Enter(lock)
            try:
                yield Notify(cv)  # condition still false!
            finally:
                yield Exit(lock)

        def true_notifier():
            yield p.Pause(msec(150))
            yield Enter(lock)
            try:
                state["ready"] = True
                yield Notify(cv)
            finally:
                yield Exit(lock)

        kernel.fork_root(consumer)
        kernel.fork_root(false_notifier)
        kernel.fork_root(true_notifier)
        kernel.run_for(sec(1))
        assert outcomes == [True]


class TestSpuriousLockConflicts:
    """Section 6.1: a NOTIFY wakes a higher-priority waiter that
    immediately blocks on the still-held monitor — unless rescheduling is
    deferred until monitor exit (the paper's fix)."""

    def _producer_consumer(self, kernel):
        lock = Monitor("m")
        cv = ConditionVariable(lock, "cond")
        state = {"items": 0}

        def consumer():
            for _ in range(10):
                yield Enter(lock)
                try:
                    yield from await_condition(cv, lambda: state["items"] > 0)
                    state["items"] -= 1
                finally:
                    yield Exit(lock)

        def producer():
            for _ in range(10):
                yield Enter(lock)
                try:
                    state["items"] += 1
                    yield Notify(cv)
                    yield p.Compute(usec(100))  # still inside the monitor
                finally:
                    yield Exit(lock)
                yield p.Compute(usec(100))

        # Consumer at higher priority than producer: the §6.1 uniprocessor
        # interpriority case.
        kernel.fork_root(consumer, priority=5)
        kernel.fork_root(producer, priority=3)
        kernel.run_for(sec(1))

    def test_immediate_notify_causes_spurious_conflicts(self):
        kernel = make_kernel(notify_semantics="immediate", switch_cost=usec(40))
        self._producer_consumer(kernel)
        assert kernel.stats.spurious_conflicts >= 9

    def test_deferred_notify_eliminates_spurious_conflicts(self):
        kernel = make_kernel(notify_semantics="deferred", switch_cost=usec(40))
        self._producer_consumer(kernel)
        assert kernel.stats.spurious_conflicts == 0

    def test_deferred_notify_makes_fewer_switches(self):
        counts = {}
        for semantics in ("immediate", "deferred"):
            kernel = make_kernel(notify_semantics=semantics, switch_cost=usec(40))
            self._producer_consumer(kernel)
            counts[semantics] = kernel.stats.switches
        assert counts["deferred"] < counts["immediate"]


class TestQueues:
    def test_bounded_buffer_producer_consumer(self):
        """With its default timeouts a BoundedQueue is the classic
        bounded buffer: put blocks while full, get while empty."""
        kernel = make_kernel()
        buffer = BoundedQueue("buf", capacity=3)
        received = []

        def producer():
            for n in range(20):
                yield from buffer.put(n)
                yield p.Compute(usec(10))

        def consumer():
            for _ in range(20):
                item = yield from buffer.get()
                received.append(item)
                yield p.Compute(usec(25))

        kernel.fork_root(producer)
        kernel.fork_root(consumer)
        kernel.run_for(sec(1))
        assert received == list(range(20))
        assert buffer.max_depth <= 3

    def test_bounded_buffer_put_blocks_when_full(self):
        kernel = make_kernel()
        buffer = BoundedQueue("buf", capacity=2)
        stamps = []

        def producer():
            for n in range(3):
                yield from buffer.put(n)
                stamps.append((n, (yield p.GetTime())))

        def slow_consumer():
            yield p.Pause(msec(100))
            yield from buffer.get()

        kernel.fork_root(producer)
        kernel.fork_root(slow_consumer)
        kernel.run_for(sec(1), raise_on_deadlock=False)
        # First two puts are immediate; the third waits for the consumer.
        assert stamps[0][1] == 0
        assert stamps[1][1] == 0
        assert stamps[2][1] >= msec(100)

    def test_unbounded_queue_get_timeout_returns_none(self):
        kernel = make_kernel(quantum=msec(50))
        queue = UnboundedQueue("q")
        results = []

        def consumer():
            results.append((yield from queue.get(timeout=msec(40))))

        kernel.fork_root(consumer)
        kernel.run_for(sec(1))
        assert results == [None]

    def test_unbounded_queue_get_all_drains(self):
        kernel = make_kernel()
        queue = UnboundedQueue("q")
        results = []

        def producer():
            for n in range(5):
                yield from queue.put(n)

        def consumer():
            yield p.Pause(msec(100))
            results.append((yield from queue.get_all()))

        kernel.fork_root(producer)
        kernel.fork_root(consumer)
        kernel.run_for(sec(1))
        assert results == [[0, 1, 2, 3, 4]]

    def test_distinct_use_tracking_for_table3(self):
        kernel = make_kernel()
        locks = [Monitor(f"m{i}") for i in range(7)]
        cv_lock = Monitor("cv-lock")
        cv = ConditionVariable(cv_lock, "cv", timeout=msec(10))

        def toucher():
            for lock in locks:
                yield Enter(lock)
                yield Exit(lock)
            yield Enter(cv_lock)
            try:
                yield Wait(cv)
            finally:
                yield Exit(cv_lock)

        kernel.fork_root(toucher)
        kernel.run_for(sec(1))
        assert len(kernel.stats.monitors_used) == 8
        assert len(kernel.stats.cvs_used) == 1


class TestBoundedQueue:
    def test_try_put_rejects_when_full(self):
        kernel = make_kernel()
        queue = BoundedQueue("q", capacity=2)
        outcomes = []

        def producer():
            for n in range(4):
                outcomes.append((yield from queue.try_put(n)))

        kernel.fork_root(producer)
        kernel.run_for(msec(10))
        assert outcomes == [True, True, False, False]
        assert queue.max_depth == 2
        assert len(queue) == 2

    def test_get_timeout_returns_none_when_empty(self):
        kernel = make_kernel(quantum=msec(50))
        queue = BoundedQueue("q", capacity=4, get_timeout=msec(50))
        results = []

        def consumer():
            results.append((yield from queue.get()))
            results.append((yield from queue.get(timeout=msec(100))))

        kernel.fork_root(consumer)
        kernel.run_for(sec(1))
        assert results == [None, None]

    def test_multi_consumer_notify_wakes_exactly_one(self):
        """One put, three blocked consumers: exactly one gets the item,
        the others time out empty-handed (Mesa exactly-one NOTIFY)."""
        kernel = make_kernel(quantum=msec(50))
        queue = BoundedQueue("q", capacity=4)
        results = []

        def consumer(tag):
            item = yield from queue.get(timeout=msec(200))
            results.append((tag, item))

        def producer():
            yield p.Pause(msec(50))
            yield from queue.put("only")

        for tag in range(3):
            kernel.fork_root(consumer, args=(tag,))
        kernel.fork_root(producer)
        kernel.run_for(sec(1))
        delivered = [r for r in results if r[1] is not None]
        empty = [r for r in results if r[1] is None]
        assert len(delivered) == 1
        assert len(empty) == 2

    def test_fifo_order_under_contention(self):
        """Two producers racing three consumers: items come out in the
        exact order they went in, no loss, no duplication."""
        kernel = make_kernel()
        queue = BoundedQueue("q", capacity=4)
        put_order = []
        got_order = []

        def producer(base):
            for n in range(10):
                item = base + n
                yield from queue.put(item)
                put_order.append(item)
                yield p.Compute(usec(30))

        def consumer():
            while len(got_order) < 20:
                item = yield from queue.get(timeout=msec(100))
                if item is not None:
                    got_order.append(item)
                    yield p.Compute(usec(70))

        kernel.fork_root(producer, args=(0,))
        kernel.fork_root(producer, args=(100,))
        for _ in range(3):
            kernel.fork_root(consumer)
        kernel.run_for(sec(5))
        assert got_order == put_order
        assert len(got_order) == 20

    def test_prune_removes_matches_and_wakes_putters(self):
        kernel = make_kernel(quantum=msec(50))
        queue = BoundedQueue("q", capacity=3)
        removed_items = []
        late_put = []

        def producer():
            for n in range(3):
                yield from queue.put(n)
            # Queue is now full; this put blocks until prune frees slots.
            yield from queue.put(99)
            late_put.append((yield p.GetTime()))

        def pruner():
            yield p.Pause(msec(100))
            removed = yield from queue.prune(lambda n: n % 2 == 0)
            removed_items.extend(removed)

        kernel.fork_root(producer)
        kernel.fork_root(pruner)
        kernel.run_for(sec(1))
        assert removed_items == [0, 2]
        assert len(late_put) == 1 and late_put[0] >= msec(100)
        assert sorted(queue.items) == [1, 99]

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            BoundedQueue("q", capacity=0)

