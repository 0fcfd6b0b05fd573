"""Latch, init-once, and reader-writer lock."""

import pytest

from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.sync.latch import Latch, TimeoutExpired
from repro.sync.once import Once, RacyOnce
from repro.sync.rwlock import ReadWriteLock


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestLatch:
    def test_waiters_release_on_fire(self):
        kernel = make_kernel()
        latch = Latch("ready")
        got = []

        def waiter(tag):
            value = yield from latch.await_fired()
            got.append((tag, value))

        def completer():
            yield p.Pause(msec(100))
            yield from latch.fire("payload")

        for tag in range(3):
            kernel.fork_root(waiter, (tag,))
        kernel.fork_root(completer)
        kernel.run_for(sec(1))
        assert sorted(got) == [(0, "payload"), (1, "payload"), (2, "payload")]
        kernel.shutdown()

    def test_late_waiter_passes_straight_through(self):
        kernel = make_kernel()
        latch = Latch("ready")
        got = []

        def completer():
            yield from latch.fire(42)

        def late_waiter():
            yield p.Pause(msec(200))
            got.append((yield from latch.await_fired()))

        kernel.fork_root(completer)
        kernel.fork_root(late_waiter)
        kernel.run_for(sec(1))
        assert got == [42]
        kernel.shutdown()

    def test_double_fire_is_an_error(self):
        kernel = make_kernel(propagate_thread_errors=False)
        latch = Latch("once")

        def completer():
            yield from latch.fire()
            yield from latch.fire()

        kernel.fork_root(completer)
        kernel.run_for(msec(10))
        assert len(kernel.pending_thread_errors) == 1
        kernel.shutdown()

    def test_await_timeout(self):
        kernel = make_kernel(quantum=msec(50))
        latch = Latch("never")
        outcomes = []

        def waiter():
            try:
                yield from latch.await_fired(timeout=msec(100))
            except TimeoutExpired:
                outcomes.append("timed-out")

        kernel.fork_root(waiter)
        kernel.run_for(sec(1))
        assert outcomes == ["timed-out"]
        kernel.shutdown()


class TestOnce:
    def _racers(self, kernel, once, results, count=5):
        def racer():
            value = yield from once.get()
            results.append(value)

        for index in range(count):
            kernel.fork_root(racer, name=f"racer{index}", priority=1 + index % 4)

    def test_once_initialises_exactly_once(self):
        kernel = make_kernel()
        once = Once("config", lambda: "initialised")
        results = []
        self._racers(kernel, once, results)
        kernel.run_for(sec(1))
        assert results == ["initialised"] * 5
        assert once.init_calls == 1
        kernel.shutdown()

    def test_racy_once_safe_under_strong_ordering(self):
        kernel = make_kernel()
        once = RacyOnce("config", lambda: "initialised")
        results = []
        self._racers(kernel, once, results)
        kernel.run_for(sec(1))
        assert results == ["initialised"] * 5
        assert once.init_calls == 1
        assert once.stale_fast_reads == 0
        kernel.shutdown()

    def test_racy_once_hazard_under_weak_ordering(self):
        # One initialiser on CPU 0, a polling fast-path reader on CPU 1:
        # across seeds, some runs see done=True with value still hidden.
        hazards = 0
        for seed in range(15):
            kernel = Kernel(
                KernelConfig(
                    seed=seed, ncpus=2, memory_model="pso",
                    store_buffer_delay=usec(20), switch_cost=0,
                    monitor_overhead=0,
                )
            )
            once = RacyOnce("config", lambda: "initialised")

            def initialiser():
                yield p.Compute(usec(5))
                yield from once.get()

            def fast_reader():
                for _ in range(200):
                    yield from once.get()
                    yield p.Compute(usec(3))

            kernel.fork_root(initialiser)
            kernel.fork_root(fast_reader)
            kernel.run_for(sec(1))
            hazards += once.stale_fast_reads
            kernel.shutdown()
        assert hazards >= 1

    def test_once_safe_even_under_weak_ordering(self):
        for seed in range(10):
            kernel = Kernel(
                KernelConfig(
                    seed=seed, ncpus=2, memory_model="pso",
                    store_buffer_delay=usec(20), switch_cost=0,
                    monitor_overhead=0,
                )
            )
            once = Once("config", lambda: "initialised")
            results = []

            def reader():
                for _ in range(50):
                    results.append((yield from once.get()))
                    yield p.Compute(usec(3))

            kernel.fork_root(reader)
            kernel.fork_root(reader)
            kernel.run_for(sec(1))
            assert all(value == "initialised" for value in results)
            kernel.shutdown()


class TestReadWriteLock:
    def test_readers_share(self):
        kernel = make_kernel()
        rwlock = ReadWriteLock("tree")

        def reader():
            yield from rwlock.acquire_read()
            # Pause (not Compute) so readers overlap on the uniprocessor.
            yield p.Pause(msec(100))
            yield from rwlock.release_read()

        for index in range(4):
            kernel.fork_root(reader, name=f"r{index}", priority=1 + index)
        kernel.run_for(sec(1))
        assert rwlock.max_concurrent_readers == 4
        kernel.shutdown()

    def test_writer_excludes_everyone(self):
        kernel = make_kernel()
        rwlock = ReadWriteLock("tree")
        trace = []

        def writer():
            yield from rwlock.acquire_write()
            trace.append("w-in")
            yield p.Pause(msec(100))
            trace.append("w-out")
            yield from rwlock.release_write()

        def reader():
            yield p.Pause(msec(50))  # arrive mid-write
            yield from rwlock.acquire_read()
            trace.append("r")
            yield from rwlock.release_read()

        kernel.fork_root(writer)
        kernel.fork_root(reader)
        kernel.run_for(sec(1))
        assert trace == ["w-in", "w-out", "r"]
        kernel.shutdown()

    def test_pending_writer_blocks_new_readers(self):
        kernel = make_kernel()
        rwlock = ReadWriteLock("tree")
        order = []

        def long_reader():
            yield from rwlock.acquire_read()
            order.append("reader1-in")
            yield p.Pause(msec(100))
            yield from rwlock.release_read()

        def writer():
            yield p.Pause(msec(50))
            yield from rwlock.acquire_write()
            order.append("writer")
            yield from rwlock.release_write()

        def late_reader():
            yield p.Compute(msec(70))  # arrives after writer queued
            yield from rwlock.acquire_read()
            order.append("reader2")
            yield from rwlock.release_read()

        kernel.fork_root(long_reader)
        kernel.fork_root(writer)
        kernel.fork_root(late_reader)
        kernel.run_for(sec(1))
        # Writer preference: the late reader waits behind the writer.
        assert order == ["reader1-in", "writer", "reader2"]
        kernel.shutdown()

    def test_release_without_acquire_is_error(self):
        kernel = make_kernel(propagate_thread_errors=False)
        rwlock = ReadWriteLock("tree")

        def bad():
            yield from rwlock.release_read()

        kernel.fork_root(bad)
        kernel.run_for(msec(10))
        assert len(kernel.pending_thread_errors) == 1
        kernel.shutdown()

    def test_locked_helpers(self):
        kernel = make_kernel()
        rwlock = ReadWriteLock("tree")
        results = []

        def _body(value):
            yield p.Compute(usec(10))
            return value

        def user():
            results.append((yield from rwlock.read_locked(_body("read"))))
            results.append((yield from rwlock.write_locked(_body("write"))))

        kernel.fork_root(user)
        kernel.run_for(sec(1))
        assert results == ["read", "write"]
        assert not rwlock.active_writer and rwlock.active_readers == 0
        kernel.shutdown()
