"""The ten thread-usage paradigms (paper Section 4)."""

import pytest

from repro.kernel import Deadlock, Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.paradigms.deadlock_avoid import (
    FlakyClientError,
    WindowManager,
    finalization_service,
    fork_callback,
)
from repro.paradigms.defer import CriticalEventLoop, defer_work, run_deferred
from repro.paradigms.encapsulated import (
    CallbackRegistry,
    delayed_fork,
    periodical_fork,
)
from repro.paradigms.exploit import parallel_map, serial_map
from repro.paradigms.oneshot import GUARDED, GuardedButton, one_shot
from repro.paradigms.pump import Pump
from repro.paradigms.rejuvenate import RejuvenatingDispatcher, rejuvenating
from repro.paradigms.serializer import CoalescingSerializer, MBQueue
from repro.paradigms.slack import SlackProcess
from repro.paradigms.sleeper import PeriodicalProcess, Sleeper
from repro.sync.queues import BoundedQueue, UnboundedQueue


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestDeferWork:
    def test_defer_work_returns_before_work_completes(self):
        kernel = make_kernel()
        stamps = {}

        def slow_print_job():
            yield p.Compute(msec(500))
            stamps["printed"] = yield p.GetTime()

        def command():
            yield from defer_work(slow_print_job, name="print")
            stamps["returned"] = yield p.GetTime()

        kernel.fork_root(command)
        kernel.run_for(sec(1))
        # Latency reduction: the command returns immediately.
        assert stamps["returned"] == 0
        assert stamps["printed"] == msec(500)

    def test_run_deferred_is_joinable(self):
        kernel = make_kernel()
        results = []

        def job():
            yield p.Compute(usec(10))
            return "formatted"

        def command():
            handle = yield from run_deferred(job)
            results.append((yield p.Join(handle)))

        kernel.fork_root(command)
        kernel.run_for(msec(10))
        assert results == ["formatted"]

    def test_critical_event_loop_forks_per_event(self):
        kernel = make_kernel()
        handled = []

        def handler_factory(event):
            def handler():
                yield p.Compute(msec(5))  # "real work" at low priority
                handled.append(event)

            return handler

        keyboard = kernel.channel("keyboard")
        notifier = CriticalEventLoop(keyboard, handler_factory, worker_priority=3)
        kernel.fork_root(notifier.proc, name="Notifier", priority=7)
        for i in range(5):
            kernel.post_at(msec(10 * (i + 1)), lambda k, i=i: keyboard.post(i))
        kernel.run_for(sec(1))
        assert sorted(handled) == [0, 1, 2, 3, 4]
        assert notifier.forks_made == 5

    def test_critical_loop_stays_responsive_under_load(self):
        # The notifier (priority 7) must pick up each event immediately
        # even while a forked worker still grinds at priority 3.
        kernel = make_kernel()

        def handler_factory(event):
            def handler():
                yield p.Compute(msec(40))

            return handler

        keyboard = kernel.channel("keyboard")
        notifier = CriticalEventLoop(keyboard, handler_factory, worker_priority=3)

        kernel.fork_root(notifier.proc, name="Notifier", priority=7)
        kernel.post_at(msec(10), lambda k: keyboard.post("a"))
        kernel.post_at(msec(12), lambda k: keyboard.post("b"))
        kernel.run_for(sec(1))
        assert notifier.events_seen == 2


class TestPumps:
    def test_pipeline_preserves_order(self):
        kernel = make_kernel()
        source = UnboundedQueue("src")
        middle = BoundedQueue("mid", capacity=4)
        sink = UnboundedQueue("dst")
        received = []

        stage1 = Pump("stage1", source, middle, transform=lambda x: x * 2)
        stage2 = Pump("stage2", middle, sink, transform=lambda x: x + 1)

        def producer():
            for n in range(10):
                yield from source.put(n)
                yield p.Compute(usec(20))

        def collector():
            for _ in range(10):
                received.append((yield from sink.get()))

        kernel.fork_root(stage1.proc, name="stage1")
        kernel.fork_root(stage2.proc, name="stage2")
        kernel.fork_root(producer)
        kernel.fork_root(collector)
        kernel.run_for(sec(1), raise_on_deadlock=False)
        assert received == [n * 2 + 1 for n in range(10)]
        assert stage1.items_pumped == 10

    def test_pump_fanout_and_drop(self):
        kernel = make_kernel()
        source = UnboundedQueue("src")
        sink = UnboundedQueue("dst")
        received = []

        def expand_evens(x):
            if x % 2:
                return None  # drop odds
            return [x, x]  # duplicate evens

        pump = Pump("expander", source, sink, transform=expand_evens)

        def producer():
            for n in range(6):
                yield from source.put(n)

        def collector():
            for _ in range(6):
                received.append((yield from sink.get()))

        kernel.fork_root(pump.proc, name="expander")
        kernel.fork_root(producer)
        kernel.fork_root(collector)
        kernel.run_for(sec(1), raise_on_deadlock=False)
        assert received == [0, 0, 2, 2, 4, 4]

    def test_pump_reads_from_device_channel(self):
        kernel = make_kernel()
        device = kernel.channel("raw-input")
        sink = UnboundedQueue("cooked")
        pump = Pump("preprocessor", device, sink,
                    transform=lambda event: f"cooked:{event}")

        kernel.fork_root(pump.proc, name="preprocessor")
        kernel.post_at(msec(10), lambda k: device.post("keydown"))
        kernel.run_for(msec(100))
        assert list(sink.items) == ["cooked:keydown"]


class TestSlackProcess:
    def _run_echo(self, strategy, producer_priority, slack_priority, **cfg):
        kernel = make_kernel(**cfg)
        queue = UnboundedQueue("paint-requests")
        delivered = []

        def deliver(batch):
            delivered.append(list(batch))
            yield p.Compute(usec(10))

        slack = SlackProcess("buffer", queue, deliver, strategy=strategy)

        def imaging():
            # Bursts of 5 paint requests, tiny gaps between them.
            for burst in range(4):
                for i in range(5):
                    # Overlapping requests: only 2 distinct screen regions,
                    # so a gathered burst of 5 merges down to 2.
                    yield from queue.put(_Paint(key=i % 2, burst=burst))
                    yield p.Compute(usec(30))
                yield p.Pause(msec(100))

        kernel.fork_root(slack.proc, name="buffer", priority=slack_priority)
        kernel.fork_root(imaging, name="imaging", priority=producer_priority)
        kernel.run_for(sec(1))
        return slack, delivered

    def test_ybntm_strategy_merges_bursts(self):
        slack, delivered = self._run_echo("ybntm", 3, 5)
        # With YieldButNotToMe the producer fills the queue during the
        # donation, so requests batch instead of trickling one by one.
        assert slack.merge_ratio > 2.0

    def test_plain_yield_fails_to_merge_when_higher_priority(self):
        # §5.2: "the scheduler always chooses the buffer thread to run,
        # not the image thread ... no merging occurs."
        slack, delivered = self._run_echo("yield", 3, 5)
        assert slack.merge_ratio == pytest.approx(1.0)

    def test_plain_yield_works_at_equal_priority(self):
        slack, delivered = self._run_echo("yield", 4, 4)
        assert slack.merge_ratio > 2.0

    def test_ybntm_sends_fewer_batches_than_yield(self):
        ybntm, _ = self._run_echo("ybntm", 3, 5)
        plain, _ = self._run_echo("yield", 3, 5)
        assert ybntm.batches_sent < plain.batches_sent

    def test_merge_keeps_latest_per_key(self):
        slack, delivered = self._run_echo("ybntm", 3, 5)
        for batch in delivered:
            keys = [item.key for item in batch]
            assert len(keys) == len(set(keys))

    def test_timed_queue_timeout_delivers_no_phantom_batch(self):
        """A slack process on a default-timeout queue must treat a timed-out
        (None) get as "poll again", not as an item to batch."""
        kernel = make_kernel(quantum=msec(50))
        queue = UnboundedQueue("q", get_timeout=msec(50))
        delivered = []

        def deliver(batch):
            delivered.append(list(batch))
            yield p.Compute(usec(10))

        slack = SlackProcess("buffer", queue, deliver, strategy="ybntm")

        def producer():
            yield p.Pause(msec(400))  # several empty timeouts first
            yield from queue.put(_Paint(key=0, burst=0))

        kernel.fork_root(slack.proc, name="buffer", priority=4)
        kernel.fork_root(producer, name="producer", priority=4)
        kernel.run_for(sec(1))
        assert len(delivered) == 1
        assert all(item is not None for batch in delivered for item in batch)


class _Paint:
    def __init__(self, key, burst):
        self.key = key
        self.burst = burst

    def __repr__(self):
        return f"paint({self.key},{self.burst})"


class TestSleepers:
    def test_sleeper_activates_periodically(self):
        kernel = make_kernel()
        ticks = []
        # Zero work cost: wakes land exactly on the 100 ms grid.
        sleeper = Sleeper("cache-ager", msec(100), lambda: ticks.append(1),
                          work_cost=0)
        kernel.fork_root(sleeper.proc, name="cache-ager")
        kernel.run_for(sec(1))
        assert sleeper.activations == 10

    def test_sleeper_period_stretches_with_tick_granularity(self):
        # §6.3 in miniature: with 100 us of work per activation the next
        # 100 ms deadline lands just past a tick, so the sleeper wakes at
        # the *following* 50 ms tick — an effective 150 ms period.
        kernel = make_kernel()
        sleeper = Sleeper("drifter", msec(100), lambda: None,
                          work_cost=usec(100))
        kernel.fork_root(sleeper.proc, name="drifter")
        kernel.run_for(sec(1))
        assert sleeper.activations == 7  # 100,250,400,...,1000 ms

    def test_periodical_process_multiplexes_closures(self):
        kernel = make_kernel()
        runs = {"fast": 0, "slow": 0}
        pp = PeriodicalProcess()
        pp.add("fast", msec(100), lambda: runs.__setitem__("fast", runs["fast"] + 1))
        pp.add("slow", msec(300), lambda: runs.__setitem__("slow", runs["slow"] + 1))
        kernel.fork_root(pp.proc, name="PeriodicalProcess")
        kernel.run_for(sec(1))
        assert runs["fast"] >= 8
        assert 2 <= runs["slow"] <= 4

    def test_periodical_process_uses_one_stack(self):
        kernel = make_kernel(stack_reservation=100 * 1024)
        pp = PeriodicalProcess()
        for i in range(50):
            pp.add(f"closure-{i}", msec(200), lambda: None)
        kernel.fork_root(pp.proc, name="PeriodicalProcess")
        kernel.run_for(msec(10))
        # 50 logical sleepers, one 100 KB stack — the §5.1 economy.
        assert kernel.stats.stack_bytes == 100 * 1024

    def test_forked_sleepers_use_many_stacks(self):
        kernel = make_kernel(stack_reservation=100 * 1024)
        for i in range(50):
            sleeper = Sleeper(f"s{i}", msec(200), lambda: None)
            kernel.fork_root(sleeper.proc, name=f"s{i}")
        kernel.run_for(msec(10))
        assert kernel.stats.stack_bytes == 50 * 100 * 1024

    def test_sleeper_runs_generator_work(self):
        kernel = make_kernel()
        log = []

        def work():
            yield p.Compute(usec(10))
            log.append((yield p.GetTime()))

        sleeper = Sleeper("gen-worker", msec(100), work, work_cost=0)
        kernel.fork_root(sleeper.proc, name="gen-worker")
        # The 10 us of generator work pushes each deadline past a tick:
        # activations at 100 ms and 250 ms within 350 ms (tick drift).
        kernel.run_for(msec(350))
        assert log == [msec(100) + usec(10), msec(250) + usec(10)]


class TestOneShots:
    def test_one_shot_fires_once_then_exits(self):
        kernel = make_kernel()
        fired = []
        proc = one_shot(msec(120), lambda: fired.append(1))
        kernel.fork_root(proc, name="oneshot")
        kernel.run_for(sec(1))
        assert fired == [1]
        assert kernel.stats.live_threads == 0

    def _press_at(self, kernel, button, at, outcomes):
        def presser():
            result = yield from button.press()
            outcomes.append((at, result))

        kernel.post_at(at, lambda k: k.fork_root(presser, name=f"press@{at}"))

    def test_guarded_button_double_click_invokes(self):
        kernel = make_kernel()
        fired = []
        button = GuardedButton(
            "delete", lambda: fired.append(1),
            arming_period=msec(100), invocation_window=msec(1500),
        )
        outcomes = []
        self._press_at(kernel, button, msec(10), outcomes)    # arm
        self._press_at(kernel, button, msec(400), outcomes)   # invoke
        kernel.run_for(sec(3))
        assert fired == [1]
        assert button.invocations == 1

    def test_guarded_button_too_close_second_click_ignored(self):
        kernel = make_kernel()
        fired = []
        button = GuardedButton(
            "delete", lambda: fired.append(1),
            arming_period=msec(100), invocation_window=msec(1500),
        )
        outcomes = []
        self._press_at(kernel, button, msec(10), outcomes)
        self._press_at(kernel, button, msec(50), outcomes)  # inside arming
        kernel.run_for(sec(3))
        assert fired == []
        assert ("ignored" in [r for _, r in outcomes])

    def test_guarded_button_expiry_repaints_guard(self):
        kernel = make_kernel()
        fired = []
        button = GuardedButton(
            "delete", lambda: fired.append(1),
            arming_period=msec(100), invocation_window=msec(500),
        )
        outcomes = []
        self._press_at(kernel, button, msec(10), outcomes)
        kernel.run_for(sec(2))
        assert fired == []
        assert button.label == GUARDED
        assert button.repaints == 1


class TestDeadlockAvoiders:
    def _contended_manager(self, kernel, fork_repaint):
        manager = WindowManager()
        upper = manager.add_window("upper")
        lower = manager.add_window("lower")

        def adjuster():
            yield from manager.adjust_boundary(
                upper, lower, 10, fork_repaint=fork_repaint
            )

        def painter():
            # Takes window lock then tree lock — the canonical order.
            yield from manager.paint(upper, cost=msec(5))

        # The painter grabs the window lock, sleeps... we interleave by
        # priorities: painter starts first, adjuster preempts mid-paint.
        def painter_with_hold():
            yield p.Enter if False else None  # (never reached)

        kernel.fork_root(painter, name="painter", priority=4)
        kernel.post_at(usec(50), lambda k: k.fork_root(adjuster, name="adjuster", priority=6))
        return manager, upper, lower

    def test_forked_repaint_avoids_deadlock(self):
        kernel = make_kernel()
        manager, upper, lower = self._contended_manager(kernel, fork_repaint=True)
        kernel.run_for(sec(1))
        assert manager.adjustments == 1
        assert upper.repaints >= 1
        assert lower.repaints >= 1

    def test_inline_repaint_deadlocks(self):
        kernel = make_kernel()
        manager, upper, lower = self._contended_manager(kernel, fork_repaint=False)
        with pytest.raises(Deadlock):
            kernel.run_for(sec(1))

    def test_fork_callback_insulates_service(self):
        kernel = make_kernel(propagate_thread_errors=False)
        progressed = []

        def bad_client():
            yield p.Compute(usec(10))
            raise FlakyClientError("client bug")

        def service():
            yield from fork_callback(bad_client, name="client-callback")
            yield p.Compute(usec(50))
            progressed.append("service-survived")

        kernel.fork_root(service)
        kernel.run_for(msec(10))
        assert progressed == ["service-survived"]
        assert len(kernel.pending_thread_errors) == 1

    def test_finalization_service_forked_vs_inline(self):
        def bad_finalizer():
            yield p.Compute(usec(5))
            raise FlakyClientError("finalizer bug")

        def good_finalizer():
            yield p.Compute(usec(5))
            completed.append("good")

        # Forked: the bad finalizer cannot prevent the good one.
        completed = []
        kernel = make_kernel(propagate_thread_errors=False)
        service = finalization_service([bad_finalizer, good_finalizer], forked=True)
        kernel.fork_root(service, name="finalization")
        kernel.run_for(msec(10))
        assert completed == ["good"]

        # Inline: the service dies at the bad finalizer.
        completed = []
        kernel = make_kernel(propagate_thread_errors=False)
        service = finalization_service([bad_finalizer, good_finalizer], forked=False)
        kernel.fork_root(service, name="finalization")
        kernel.run_for(msec(10))
        assert completed == []
        assert len(kernel.pending_thread_errors) == 1


class TestTaskRejuvenation:
    def test_rejuvenating_service_restarts_after_error(self):
        kernel = make_kernel()
        attempts = []

        def flaky_factory():
            def body():
                attempts.append(1)
                yield p.Compute(usec(10))
                if len(attempts) < 3:
                    raise RuntimeError("bad state")
                # Third incarnation survives.
                yield p.Compute(usec(10))

            return body

        proc, log = rejuvenating(flaky_factory, name="flaky", max_restarts=5)
        kernel.fork_root(proc, name="flaky")
        kernel.run_for(msec(10))
        assert len(attempts) == 3
        assert log.restarts == 2

    def test_rejuvenation_gives_up_after_max_restarts(self):
        kernel = make_kernel(propagate_thread_errors=False)

        def always_bad_factory():
            def body():
                yield p.Compute(usec(10))
                raise RuntimeError("hopeless")

            return body

        proc, log = rejuvenating(always_bad_factory, max_restarts=3)
        kernel.fork_root(proc, name="hopeless")
        kernel.run_for(msec(10))
        assert log.restarts == 4  # 1 original + 3 restarts, last re-raises
        assert len(kernel.pending_thread_errors) == 1

    def test_dispatcher_survives_bad_callback(self):
        kernel = make_kernel()
        device = kernel.channel("input-events")
        dispatcher = RejuvenatingDispatcher(device)
        good_events = []

        def sometimes_bad(event):
            if event == "poison":
                raise RuntimeError("client callback bug")
            good_events.append(event)

        dispatcher.register(sometimes_bad)
        kernel.fork_root(dispatcher.proc, name="dispatcher")
        for at, event in [(msec(10), "a"), (msec(20), "poison"), (msec(30), "b")]:
            kernel.post_at(at, lambda k, e=event: device.post(e))
        kernel.run_for(sec(1))
        # The rejuvenated copy keeps dispatching after the poison event.
        assert good_events == ["a", "b"]
        assert dispatcher.log.restarts == 1


class TestSerializers:
    def test_mbqueue_preserves_arrival_order(self):
        kernel = make_kernel()
        mbq = MBQueue("viewer")
        kernel.fork_root(mbq.proc, name="viewer.serializer")

        def clicker(tag):
            yield from mbq.enqueue(lambda: None, key=tag)

        for i in range(8):
            kernel.post_at(
                msec(10 * (i + 1)),
                lambda k, i=i: k.fork_root(clicker, args=(i,), name=f"click{i}"),
            )
        kernel.run_for(sec(1))
        assert mbq.history == list(range(8))

    def test_mbqueue_serializes_concurrent_sources(self):
        # "input events can arrive from a number of different sources.
        # They are handled by a single thread."
        kernel = make_kernel()
        mbq = MBQueue("events")
        kernel.fork_root(mbq.proc, name="serializer")
        in_handler = []
        max_concurrency = []

        def handler(tag):
            in_handler.append(tag)
            max_concurrency.append(len(in_handler))
            yield p.Compute(usec(200))
            in_handler.remove(tag)

        def source(base):
            for i in range(5):
                yield from mbq.enqueue(handler, (f"{base}-{i}",), cost=0)
                yield p.Compute(usec(30))

        kernel.fork_root(source, args=("mouse",))
        kernel.fork_root(source, args=("keyboard",))
        kernel.run_for(sec(1))
        assert mbq.processed == 10
        assert max(max_concurrency) == 1  # the point of serialization

    def test_coalescing_serializer_drops_superseded_work(self):
        kernel = make_kernel()
        serializer = CoalescingSerializer("repaint")
        kernel.fork_root(serializer.proc, name="repaint.serializer")
        painted = []

        def burst():
            # 6 repaints of the same window queued back-to-back.
            for i in range(6):
                yield from serializer.enqueue(
                    lambda i=i: painted.append(i), key="window-1", cost=usec(500)
                )

        kernel.fork_root(burst)
        kernel.run_for(sec(1))
        # 6 repaints queued; scheduling may split them across 2-3 batches,
        # but most must coalesce away.
        assert serializer.coalesced >= 3
        assert len(painted) <= 3
        assert serializer.coalesced + len(painted) == 6


class TestEncapsulatedForks:
    def test_delayed_fork_runs_in_the_future(self):
        kernel = make_kernel()
        stamps = []

        def repaint():
            stamps.append((yield p.GetTime()))

        def main():
            yield from delayed_fork(repaint, delay=msec(500))

        kernel.fork_root(main)
        kernel.run_for(sec(1))
        assert stamps == [msec(500)]

    def test_periodical_fork_repeats(self):
        kernel = make_kernel()
        stamps = []

        def check():
            stamps.append((yield p.GetTime()))

        def main():
            yield from periodical_fork(check, period=msec(200))

        kernel.fork_root(main)
        kernel.run_for(sec(1))
        assert stamps == [msec(200), msec(400), msec(600), msec(800), msec(1000)]

    def test_callback_registry_forks_by_default(self):
        kernel = make_kernel()
        order = []
        registry = CallbackRegistry("filesystem")
        registry.register(lambda: order.append("forked"))  # fork=True default
        registry.register(lambda: order.append("inline"), fork=False)

        def service():
            yield from registry.invoke_all()
            order.append("service-returned")

        kernel.fork_root(service)
        kernel.run_for(msec(10))
        assert registry.forked_invocations == 1
        # The inline callback ran before the service returned; the forked
        # one ran in its own thread.
        assert "inline" in order and "forked" in order
        assert order.index("inline") < order.index("service-returned")

    def test_unforked_callback_error_kills_caller(self):
        kernel = make_kernel(propagate_thread_errors=False)
        registry = CallbackRegistry("risky")

        def bad():
            raise RuntimeError("expert-only callback bug")

        registry.register(bad, fork=False)
        reached = []

        def service():
            yield from registry.invoke_all()
            reached.append(True)

        kernel.fork_root(service)
        kernel.run_for(msec(10))
        assert reached == []
        assert len(kernel.pending_thread_errors) == 1


class TestConcurrencyExploiters:
    def test_parallel_map_correctness(self):
        kernel = make_kernel(ncpus=2)
        results = []

        def main():
            out = yield from parallel_map(
                list(range(10)), lambda x: x * x, nworkers=2
            )
            results.append(out)

        kernel.fork_root(main)
        kernel.run_for(sec(10))
        assert results == [[x * x for x in range(10)]]

    def test_parallel_map_speedup_on_two_cpus(self):
        durations = {}
        for ncpus in (1, 2):
            kernel = make_kernel(ncpus=ncpus)
            done = []

            def main():
                yield from parallel_map(
                    list(range(8)), lambda x: x, nworkers=2, cost_per_item=msec(10)
                )
                done.append((yield p.GetTime()))

            kernel.fork_root(main)
            kernel.run_for(sec(10))
            durations[ncpus] = done[0]
        assert durations[2] < durations[1]
        assert durations[2] == pytest.approx(durations[1] / 2, rel=0.2)

    def test_serial_map_baseline(self):
        kernel = make_kernel()
        results = []

        def main():
            out = yield from serial_map([1, 2, 3], lambda x: -x)
            results.append(out)

        kernel.fork_root(main)
        kernel.run_for(sec(1))
        assert results == [[-1, -2, -3]]
