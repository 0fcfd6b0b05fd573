"""Instrumentation: tracer, stats snapshots, channels, memory model."""

from types import SimpleNamespace

import pytest

from repro.kernel import Kernel, KernelConfig, SimVar, msec, sec, usec
from repro.kernel import primitives as p
from repro.kernel.instrumentation import Tracer
from repro.kernel.memory import MemorySystem, create_memory_model
from repro.kernel.rng import DeterministicRng
from repro.kernel.stats import WindowStats


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.record(0, "switch", "dispatch", "t")
        assert tracer.events == []

    def test_query_helpers(self):
        tracer = Tracer(enabled=True)
        tracer.record(10, "fork", "create", "a")
        tracer.record(20, "switch", "dispatch", "b")
        tracer.record(30, "fork", "create", "a")
        assert len(list(tracer.by_category("fork"))) == 2
        assert len(list(tracer.by_thread("b"))) == 1
        assert len(list(tracer.between(15, 30))) == 1

    def test_kernel_trace_integration(self):
        kernel = Kernel(KernelConfig(trace=True))

        def child():
            yield p.Compute(1)

        def parent():
            handle = yield p.Fork(child)
            yield p.Join(handle)

        kernel.fork_root(parent)
        kernel.run_for(msec(10))
        lifecycle = [
            (e.kind, e.thread.split("#")[0])
            for e in kernel.tracer.events
            if e.category in ("fork", "end")
        ]
        assert lifecycle == [
            ("create", "parent"), ("create", "child"),
            ("finish", "child"), ("finish", "parent"),
        ]
        assert {"switch", "fork", "end"} <= {
            e.category for e in kernel.tracer.events
        }
        kernel.shutdown()

    def test_microsecond_timestamps(self):
        kernel = Kernel(KernelConfig(trace=True, switch_cost=usec(40)))

        def worker():
            yield p.Compute(usec(123))

        kernel.fork_root(worker)
        kernel.run_for(msec(10))
        end_events = [e for e in kernel.tracer.events if e.category == "end"]
        assert end_events[0].time == usec(40) + usec(123)
        kernel.shutdown()

    def test_format_output(self):
        tracer = Tracer(enabled=True)
        tracer.record(5, "fork", "create", "t", "parent")
        text = tracer.format()
        assert "fork/create" in text and "t" in text


class TestStatsSnapshots:
    def test_snapshot_delta(self):
        kernel = make_kernel()

        def worker():
            yield p.Compute(msec(1))

        before = kernel.stats.counters()
        kernel.fork_root(worker)
        kernel.run_for(msec(10))
        after = kernel.stats.counters()
        assert after["threads_created"] - before["threads_created"] == 1
        assert after["threads_finished"] - before["threads_finished"] == 1
        kernel.shutdown()

    def test_window_stats_rate_and_fraction(self):
        window = WindowStats(duration=sec(2))
        window.counts = {"forks": 10, "cv_waits": 8, "cv_timeouts": 4}
        assert window.rate("forks") == pytest.approx(5.0)
        assert window.fraction("cv_timeouts", "cv_waits") == pytest.approx(0.5)
        assert window.fraction("cv_timeouts", "missing") == 0.0
        assert window.rate("missing") == 0.0

    def test_max_live_threads_tracked(self):
        kernel = make_kernel()

        def sleeper():
            yield p.Pause(msec(100))

        for _ in range(7):
            kernel.fork_root(sleeper)
        kernel.run_for(sec(1))
        assert kernel.stats.max_live_threads == 7
        assert kernel.stats.live_threads == 0
        kernel.shutdown()


class TestChannels:
    def test_buffered_delivery_in_order(self):
        kernel = make_kernel()
        channel = kernel.channel("ch")
        channel.post(1)
        channel.post(2)
        got = []

        def reader():
            got.append((yield p.Channelreceive(channel)))
            got.append((yield p.Channelreceive(channel)))

        kernel.fork_root(reader)
        kernel.run_for(msec(10))
        assert got == [1, 2]
        kernel.shutdown()

    def test_receive_timeout_returns_none(self):
        kernel = make_kernel(quantum=msec(50))
        channel = kernel.channel("ch")
        got = []

        def reader():
            got.append((yield p.Channelreceive(channel, timeout=msec(40))))

        kernel.fork_root(reader)
        kernel.run_for(sec(1))
        assert got == [None]
        kernel.shutdown()

    def test_post_cancels_pending_timeout(self):
        kernel = make_kernel(quantum=msec(50))
        channel = kernel.channel("ch")
        got = []

        def reader():
            got.append((yield p.Channelreceive(channel, timeout=msec(100))))
            got.append("still-alive")

        kernel.fork_root(reader)
        kernel.post_at(msec(10), lambda k: channel.post("early"))
        kernel.run_for(sec(1))
        assert got == ["early", "still-alive"]
        kernel.shutdown()

    def test_unbound_channel_rejects_post(self):
        from repro.kernel.channel import Channel

        with pytest.raises(ValueError):
            Channel("loose").post(1)

    def test_rebinding_to_other_kernel_rejected(self):
        k1 = make_kernel()
        k2 = make_kernel()
        channel = k1.channel("ch")
        with pytest.raises(ValueError):
            channel.bind(k2)
        k1.shutdown()
        k2.shutdown()


class TestMemoryModelUnit:
    def _pso_kernel(self, delay):
        return make_kernel(ncpus=2, memory_model="pso", store_buffer_delay=delay)

    def test_strong_ordering_immediate_visibility(self):
        memory = MemorySystem()
        var = SimVar("x", initial=0)
        memory.store(var, 1, 0, None, None)
        assert memory.load_observed(var, 0, None) == (1, None)

    def test_weak_ordering_delays_cross_cpu_visibility(self):
        kernel = self._pso_kernel(usec(10))
        var = SimVar("x", initial=0)
        seen = []

        def writer():
            yield p.MemWrite(var, 1)
            yield p.Compute(msec(1))

        def reader():
            yield p.Compute(usec(1))
            seen.append((yield p.MemRead(var)))  # still in writer's buffer
            yield p.Compute(usec(100))
            seen.append((yield p.MemRead(var)))  # delay elapsed

        kernel.fork_root(writer, name="writer")
        kernel.fork_root(reader, name="reader")
        kernel.run_for(msec(1))
        assert seen == [0, 1]
        kernel.shutdown()

    def test_store_to_load_forwarding_same_cpu(self):
        kernel = self._pso_kernel(msec(5))
        var = SimVar("x", initial=0)
        seen = []

        def body():
            yield p.MemWrite(var, 1)
            seen.append(((yield p.MemRead(var)), var.committed))

        kernel.fork_root(body, name="writer")
        kernel.run_for(msec(1))
        assert seen == [(1, 0)]  # own store visible, not yet committed
        kernel.shutdown()

    def test_fence_publishes_own_stores(self):
        kernel = self._pso_kernel(msec(5))
        var = SimVar("x", initial=0)
        seen = []

        def writer():
            yield p.MemWrite(var, 1)
            yield p.Fence()

        def reader():
            yield p.Compute(usec(1))
            seen.append((yield p.MemRead(var)))

        kernel.fork_root(writer, name="writer")
        kernel.fork_root(reader, name="reader")
        kernel.run_for(msec(1))
        assert seen == [1]
        kernel.shutdown()

    def test_fence_counts_effective_fences_only(self):
        # One store then two fences: only the first drains anything.
        kernel = self._pso_kernel(msec(5))

        def body(var):
            yield p.MemWrite(var, 1)
            yield p.Fence()
            yield p.Fence()

        kernel.fork_root(body, (SimVar("x", initial=0),), name="fencer")
        kernel.run_for(msec(1))
        assert kernel.memory.fences == 1
        kernel.shutdown()

    def test_strong_run_with_fence_traps_reports_zero_fences(self):
        def body(var):
            yield p.MemWrite(var, 1)
            yield p.Fence()
            yield p.Fence()

        strong = make_kernel()
        strong.fork_root(body, (SimVar("x", initial=0),), name="fencer")
        strong.run_for(msec(1))
        # Under sc the kernel skips fences: the unbuffered memory has no
        # fence to call.
        assert strong.memory.fences == 0
        strong.shutdown()

    def test_coherence_old_value_never_resurfaces(self):
        writer = SimpleNamespace(tid=1, name="w")
        reader = SimpleNamespace(tid=2, name="r")

        def fresh(model):
            config = KernelConfig(memory_model=model, store_buffer_delay=usec(10))
            memory = create_memory_model(config, DeterministicRng(0))
            var = SimVar("x", initial=0)
            memory.store(var, 1, 0, writer, None)
            memory.store(var, 2, 1, writer, None)
            return memory, var

        for model in ("tso", "pso"):
            # Aging: whatever the delays drew, once 2 is visible 1 never
            # returns.
            memory, var = fresh(model)
            seen = [memory.load_observed(var, t, reader)[0] for t in range(30)]
            assert seen[-1] == 2, model
            assert 1 not in seen[seen.index(2):], model
            # Drain decisions: only the oldest store to a variable is
            # ever offered.
            memory, var = fresh(model)
            committed = []
            while options := memory.drain_options():
                assert len(options) == 1, model
                memory.drain_option(options[0][0], 0)
                committed.append(var.committed)
            assert committed == [1, 2], model
