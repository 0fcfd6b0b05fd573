"""The dynamic race detector (Eraser lockset + happens-before).

True positives: the two Section 5.5 weak-ordering hazards must be
flagged.  True negatives: monitor-protected, channel-fed and fork/join
disciplines must come back clean — the happens-before layer exists
precisely to suppress the classic Eraser false positives.
"""

import pytest

from repro.analysis.races import RaceDetector, VectorClock
from repro.casestudies.spurious import run_producer_consumer
from repro.casestudies.weakmem import run_init_once, run_publication
from repro.kernel import Kernel, KernelConfig, SimVar
from repro.kernel import primitives as p
from repro.kernel.channel import Channel
from repro.kernel.instrumentation import CAT_RACE
from repro.kernel.simtime import msec, usec
from repro.sync.monitor import Monitor


def make_kernel(**overrides):
    defaults = dict(race_detection=True, switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestVectorClock:
    def test_join_takes_componentwise_max(self):
        a = VectorClock({1: 3, 2: 1})
        b = VectorClock({2: 5, 3: 2})
        a.join(b)
        assert (a.get(1), a.get(2), a.get(3)) == (3, 5, 2)

    def test_tick_advances_own_component_only(self):
        clock = VectorClock({1: 1})
        clock.tick(1)
        assert clock.get(1) == 2
        assert clock.get(2) == 0

    def test_copy_is_independent(self):
        a = VectorClock({1: 1})
        b = a.copy()
        b.tick(1)
        assert a.get(1) == 1


class TestTruePositives:
    def test_unprotected_counter_is_flagged(self):
        kernel = make_kernel()
        counter = SimVar("counter", initial=0)

        def incr():
            for _ in range(5):
                value = yield p.MemRead(counter)
                yield p.Compute(usec(3))
                yield p.MemWrite(counter, value + 1)

        kernel.fork_root(incr, name="a")
        kernel.fork_root(incr, name="b")
        kernel.run_for(msec(10))
        detector = kernel.race_detector
        assert [r.var_name for r in detector.races] == ["counter"]
        report = detector.races[0]
        assert report.hb_race
        assert {report.first.thread, report.second.thread} == {"a", "b"}
        assert "no locks" in str(report.first)
        kernel.shutdown()

    def test_publication_hazard_is_flagged(self):
        result = run_publication(
            model="pso", rounds=6, race_detection=True
        )
        racy = {r.var_name for r in result.race_reports if r.hb_race}
        assert "global-record" in racy  # the published pointer itself
        assert any(name.startswith("record-") for name in racy)  # its fields

    def test_init_once_hazard_is_flagged(self):
        result = run_init_once(model="pso", race_detection=True)
        racy = {r.var_name for r in result.race_reports if r.hb_race}
        assert racy == {"init-done", "init-data"}

    def test_fence_repairs_init_data_but_not_the_flag(self):
        # An explicit Fence publishes ``init-data`` (release/acquire through
        # the publication clock) but the ``init-done`` spin flag itself is
        # still read without any ordering discipline.
        result = run_init_once(
            model="pso", fenced=True, race_detection=True
        )
        racy = {r.var_name for r in result.race_reports if r.hb_race}
        assert racy == {"init-done"}

    def test_detection_is_about_discipline_not_hardware(self):
        # Strong ordering hides the *symptom* (no torn reads) but the
        # locking discipline is still absent — the detector still fires,
        # which is the whole point of running it on a strong machine.
        result = run_publication(
            model="sc", rounds=6, race_detection=True
        )
        assert result.torn_reads == 0
        assert any(r.hb_race for r in result.race_reports)

    def test_race_events_reach_the_tracer(self):
        kernel = make_kernel(trace=True)
        shared = SimVar("shared", initial=0)

        def writer():
            yield p.MemWrite(shared, 1)
            yield p.Compute(usec(5))

        kernel.fork_root(writer, name="w1")
        kernel.fork_root(writer, name="w2")
        kernel.run_for(msec(1))
        race_events = list(kernel.tracer.by_category(CAT_RACE))
        assert race_events
        assert "shared" in race_events[0].detail
        kernel.shutdown()


class TestTrueNegatives:
    def test_monitor_protected_counter_is_clean(self):
        kernel = make_kernel()
        lock = Monitor("counter-lock")
        counter = SimVar("counter", initial=0)

        def incr():
            for _ in range(5):
                yield p.Enter(lock)
                try:
                    value = yield p.MemRead(counter)
                    yield p.Compute(usec(3))
                    yield p.MemWrite(counter, value + 1)
                finally:
                    yield p.Exit(lock)

        kernel.fork_root(incr, name="a")
        kernel.fork_root(incr, name="b")
        kernel.run_for(msec(10))
        assert kernel.race_detector.reports == []
        kernel.shutdown()

    def test_monitored_publication_is_clean(self):
        result = run_publication(
            model="pso", monitored=True, rounds=6,
            race_detection=True,
        )
        assert result.torn_reads == 0
        assert result.race_reports == []

    def test_spurious_study_is_clean(self):
        result = run_producer_consumer(
            notify_semantics="deferred", items=10, race_detection=True
        )
        assert result.race_reports == []

    def test_channel_fed_workers_with_join_are_clean(self):
        kernel = make_kernel()
        feed = Channel("feed").bind(kernel)
        totals = [SimVar(f"total-{i}") for i in range(2)]

        def worker(total):
            accumulated = 0
            for _ in range(3):
                item = yield p.Channelreceive(feed)
                accumulated += item
                yield p.MemWrite(total, accumulated)

        def collector():
            workers = []
            for total in totals:
                workers.append((yield p.Fork(worker, (total,))))
            for index, thread in enumerate(workers):
                yield p.Join(thread)
                # Ordered by the join edge: reading the worker's total
                # after joining it is not a race.
                yield p.MemRead(totals[index])

        for n in range(6):
            kernel.post_at(usec(10 * (n + 1)), lambda k: feed.post(1))
        kernel.fork_root(collector, name="collector", detached=False)
        kernel.run_for(msec(10))
        assert kernel.race_detector.reports == []
        kernel.shutdown()

    def test_fork_handoff_is_lockset_only(self):
        # Parent initialises, then hands the variable to a child: Eraser's
        # lockset goes empty (two threads, no common lock) but the fork
        # edge orders the accesses — report it as advisory, not a race.
        kernel = make_kernel()
        handoff = SimVar("handoff", initial=0)

        def child():
            yield p.MemWrite(handoff, 2)

        def parent():
            yield p.MemWrite(handoff, 1)
            yield p.Fork(child, name="child")

        kernel.fork_root(parent, name="parent")
        kernel.run_for(msec(1))
        detector = kernel.race_detector
        assert detector.races == []
        assert [r.var_name for r in detector.lockset_only] == ["handoff"]
        assert not detector.lockset_only[0].hb_race
        kernel.shutdown()

    def test_single_thread_never_reports(self):
        kernel = make_kernel()
        private = SimVar("private", initial=0)

        def loner():
            for n in range(5):
                yield p.MemWrite(private, n)
                yield p.MemRead(private)

        kernel.fork_root(loner, name="loner")
        kernel.run_for(msec(1))
        assert kernel.race_detector.reports == []
        kernel.shutdown()


class TestPassivity:
    def test_disabled_by_default(self):
        kernel = Kernel(KernelConfig())
        assert kernel.race_detector is None
        kernel.shutdown()

    def test_detector_does_not_perturb_the_schedule(self):
        # The detector observes, never steers: an enabled run must produce
        # the exact event stream of a disabled one (CAT_RACE aside).
        def run(race_detection):
            kernel = Kernel(KernelConfig(
                seed=7, ncpus=2, memory_model="pso", trace=True,
                race_detection=race_detection,
            ))
            shared = SimVar("shared", initial=0)

            def spin(name):
                for n in range(20):
                    value = yield p.MemRead(shared)
                    yield p.Compute(usec(5))
                    yield p.MemWrite(shared, value + n)
                    yield p.Yield()

            kernel.fork_root(spin, ("x",), name="x")
            kernel.fork_root(spin, ("y",), name="y")
            kernel.run_for(msec(50))
            events = [
                e for e in kernel.tracer.events if e.category != CAT_RACE
            ]
            stats = dict(vars(kernel.stats))
            kernel.shutdown()
            return events, stats

        off_events, off_stats = run(False)
        on_events, on_stats = run(True)
        assert on_events == off_events
        assert on_stats == off_stats

    def test_first_occurrence_only_per_variable(self):
        kernel = make_kernel()
        shared = SimVar("shared", initial=0)

        def hammer():
            for n in range(10):
                yield p.MemWrite(shared, n)
                yield p.Compute(usec(2))

        kernel.fork_root(hammer, name="a")
        kernel.fork_root(hammer, name="b")
        kernel.run_for(msec(5))
        names = [r.var_name for r in kernel.race_detector.reports]
        assert names == ["shared"]
        kernel.shutdown()


class TestStandaloneDetector:
    def test_works_without_a_kernel(self):
        # The detector is usable as a plain library: feed it accesses from
        # any source of thread-shaped objects.
        class FakeThread:
            def __init__(self, tid, name):
                self.tid = tid
                self.name = name
                self.held_monitors = []
                self.body = None

        detector = RaceDetector()
        a, b = FakeThread(1, "a"), FakeThread(2, "b")
        detector.on_fork(None, a)
        detector.on_fork(None, b)
        var = SimVar("standalone", initial=0)
        detector.on_write(a, var, now=0)
        detector.on_write(b, var, now=1)
        assert [r.var_name for r in detector.races] == ["standalone"]

    def test_format_report(self):
        detector = RaceDetector()
        assert "no lockset violations" in detector.format_report()


class TestRacesCli:
    def test_races_command(self, capsys):
        from repro.cli import main

        assert main(["races"]) == 0
        out = capsys.readouterr().out
        assert "publication pso" in out
        assert "RACY" in out
        assert "clean" in out

    def test_weakmem_command(self, capsys):
        from repro.cli import main

        assert main(["weakmem"]) == 0
        out = capsys.readouterr().out
        assert "publication sc             torn reads: 0/6" in out
        assert "publication pso            torn reads: " in out
        assert "publication pso+monitor    torn reads: 0/6" in out
        assert "init-once under pso: hazard in " in out

    @pytest.fixture(autouse=True)
    def _fast_cli(self, monkeypatch):
        # The full CLI runs simulate tens of seconds; shrink the workloads
        # so the smoke tests stay quick while exercising every branch.
        import repro.casestudies.weakmem as weakmem

        original = weakmem.run_publication

        def small_publication(**kwargs):
            kwargs.setdefault("rounds", 6)
            kwargs["rounds"] = min(kwargs["rounds"], 6)
            return original(**kwargs)

        monkeypatch.setattr(weakmem, "run_publication", small_publication)
