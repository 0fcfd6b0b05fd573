"""Failure injection: systems built on the paradigms must degrade the
way the paper says they do — crashes contained, services rejuvenated,
locks never leaked."""

import pytest
from hypothesis import Phase, given, settings, strategies as st

from repro.kernel import Kernel, KernelConfig, UncaughtThreadError, msec, sec, usec
from repro.kernel import primitives as p
from repro.kernel.primitives import Enter, Exit
from repro.paradigms.rejuvenate import RejuvenatingDispatcher, rejuvenating
from repro.sync import Monitor

_PHASES = (Phase.explicit, Phase.reuse, Phase.generate, Phase.shrink)


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestCrashContainment:
    def test_worker_crash_does_not_break_the_monitor(self):
        # A thread dying mid-critical-section (via its finally) releases
        # the lock; later users proceed.
        kernel = make_kernel()
        lock = Monitor("shared")
        completed = []

        def crasher():
            yield Enter(lock)
            try:
                yield p.Compute(usec(50))
                raise RuntimeError("died under the lock")
            finally:
                yield Exit(lock)

        def survivor():
            yield p.Pause(msec(100))
            yield Enter(lock)
            try:
                completed.append("survivor")
            finally:
                yield Exit(lock)

        kernel.fork_root(crasher)
        kernel.fork_root(survivor)
        with pytest.raises(UncaughtThreadError):
            kernel.run_for(sec(1))
        assert completed == ["survivor"]
        assert lock.owner is None
        assert kernel.pending_thread_errors == []
        kernel.shutdown()

    def test_crash_storm_in_forked_callbacks_spares_the_forker(self):
        kernel = make_kernel()
        progressed = []

        def bad_callback(n):
            yield p.Compute(usec(10))
            raise ValueError(f"callback {n}")

        def service():
            for n in range(10):
                yield p.Fork(bad_callback, (n,), detached=True)
                yield p.Compute(usec(50))
            progressed.append("all-dispatched")

        kernel.fork_root(service)
        with pytest.raises(UncaughtThreadError):
            kernel.run_for(sec(1))
        assert progressed == ["all-dispatched"]
        # One error raised, the other nine still pending.
        assert len(kernel.pending_thread_errors) == 9
        kernel.shutdown()


class TestRejuvenationUnderFire:
    @settings(max_examples=10, deadline=None, phases=_PHASES)
    @given(
        poison_positions=st.sets(
            st.integers(min_value=0, max_value=19), min_size=1, max_size=8
        )
    )
    def test_dispatcher_survives_arbitrary_poison_patterns(
        self, poison_positions
    ):
        kernel = make_kernel()
        device = kernel.channel("events")
        dispatcher = RejuvenatingDispatcher(device, max_restarts=50)
        good = []

        def handler(event):
            if event == "poison":
                raise RuntimeError("poisoned")
            good.append(event)

        dispatcher.register(handler)
        kernel.fork_root(dispatcher.proc, name="dispatcher")
        events = [
            "poison" if index in poison_positions else index
            for index in range(20)
        ]
        for offset, event in enumerate(events):
            kernel.post_at(msec(5 * (offset + 1)),
                           lambda k, e=event: device.post(e))
        kernel.run_for(sec(2))
        # Every good event was handled despite the poison between them.
        assert good == [e for e in events if e != "poison"]
        assert dispatcher.log.restarts == len(poison_positions)
        kernel.shutdown()

    def test_rejuvenating_service_bounded_restarts_then_gives_up(self):
        kernel = make_kernel()

        def doomed_factory():
            def body():
                yield p.Compute(usec(10))
                raise RuntimeError("always")

            return body

        proc, log = rejuvenating(doomed_factory, max_restarts=4)
        kernel.fork_root(proc, name="doomed")
        with pytest.raises(UncaughtThreadError):  # the final give-up
            kernel.run_for(sec(1))
        assert log.restarts == 5  # original + 4 restarts
        assert kernel.pending_thread_errors == []
        kernel.shutdown()


class TestPipelineFaults:
    def test_dead_pump_stalls_but_does_not_corrupt(self):
        from repro.paradigms.pump import Pump
        from repro.sync.queues import UnboundedQueue

        kernel = make_kernel()
        source = UnboundedQueue("src")
        sink = UnboundedQueue("dst")

        def explode_on_three(x):
            if x == 3:
                raise RuntimeError("stage bug")
            return x

        pump = Pump("fragile", source, sink, transform=explode_on_three)
        kernel.fork_root(pump.proc, name="fragile")

        def producer():
            for n in range(6):
                yield from source.put(n)

        kernel.fork_root(producer)
        with pytest.raises(UncaughtThreadError):
            kernel.run_for(sec(1))
        # Items before the fault made it; the rest are stranded upstream,
        # in order, not lost or reordered.
        assert list(sink.items) == [0, 1, 2]
        assert list(source.items) == [4, 5]
        assert kernel.pending_thread_errors == []
        kernel.shutdown()

    def test_rejuvenated_pump_drains_the_backlog(self):
        from repro.paradigms.pump import Pump
        from repro.sync.queues import UnboundedQueue

        kernel = make_kernel()
        source = UnboundedQueue("src")
        sink = UnboundedQueue("dst")
        state = {"armed": True}

        def explode_once(x):
            if x == 3 and state["armed"]:
                state["armed"] = False
                raise RuntimeError("transient stage bug")
            return x

        pump = Pump("healing", source, sink, transform=explode_once)
        proc, log = rejuvenating(lambda: pump.proc, name="pump")
        kernel.fork_root(proc, name="healing")

        def producer():
            for n in range(6):
                yield from source.put(n)

        kernel.fork_root(producer)
        kernel.run_for(sec(1))
        # The rejuvenated copy picks up where the dead one left off.
        assert list(sink.items) == [0, 1, 2, 4, 5]
        assert log.restarts == 1
        kernel.shutdown()
