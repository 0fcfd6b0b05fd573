"""Waits-for watchdog (repro.analysis.watchdog).

True positives: a 2-thread monitor cycle (a *partial* deadlock) is
reported while an unrelated daemon keeps running, and a ready-but-never-
dispatched thread is flagged as starving.  False positives: channel
waits, JOINs on running threads, timed CV waits, and all 13 golden
scenarios produce zero reports — and a passive watchdog leaves the
pinned schedule fingerprints untouched.
"""

from __future__ import annotations

import pytest

from repro.analysis.golden import golden_run, load_golden
from repro.analysis.scenarios import SCENARIOS, resolve
from repro.analysis.watchdog import (
    STARVATION_BUDGET,
    deadlock_rows,
    format_rows,
    waits_on,
)
from repro.kernel import (
    Deadlock,
    Kernel,
    KernelConfig,
    ThreadState,
    msec,
    sec,
)
from repro.kernel import primitives as p
from repro.kernel.primitives import Enter, Exit, Wait
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


def daemon_body():
    """An unrelated thread that keeps the kernel busy forever."""
    while True:
        yield p.Compute(msec(5))
        yield p.Pause(msec(5))


def abba(kernel):
    """Spring a classic ABBA cycle; returns the two monitors."""
    lock_a = Monitor("A")
    lock_b = Monitor("B")

    def locker(first, second):
        def body():
            yield Enter(first)
            yield p.Pause(msec(10))
            yield Enter(second)
            yield Exit(second)
            yield Exit(first)

        return body

    kernel.fork_root(locker(lock_a, lock_b), name="ab")
    kernel.fork_root(locker(lock_b, lock_a), name="ba")
    return lock_a, lock_b


class TestPartialDeadlock:
    def test_two_thread_cycle_detected_while_daemon_runs(self):
        kernel = make_kernel(watchdog=True)
        abba(kernel)
        kernel.fork_root(daemon_body, name="daemon")
        kernel.run_for(sec(1))  # daemon keeps it from a full wedge

        reports = kernel.watchdog.deadlocks
        assert len(reports) == 1  # reported once, not once per sweep
        report = reports[0]
        assert set(report.cycle) == {"ab", "ba"}
        # The table names what each party waits on and who holds it.
        rendered = format_rows(list(report.rows))
        assert "ab" in rendered and "ba" in rendered
        assert "A" in rendered and "B" in rendered
        # The bystander was never implicated and kept running.
        assert all("daemon" not in row[0] for row in report.rows)
        assert kernel.stats.fault_counts == {}

    def test_three_thread_cycle_reported_canonically(self):
        kernel = make_kernel(watchdog=True)
        locks = [Monitor(name) for name in "XYZ"]

        def locker(mine, theirs):
            def body():
                yield Enter(mine)
                yield p.Pause(msec(10))
                yield Enter(theirs)

            return body

        for i in range(3):
            kernel.fork_root(
                locker(locks[i], locks[(i + 1) % 3]), name=f"t{i}"
            )
        kernel.fork_root(daemon_body, name="daemon")
        kernel.run_for(sec(1))
        reports = kernel.watchdog.deadlocks
        assert len(reports) == 1
        assert set(reports[0].cycle) == {"t0", "t1", "t2"}

    def test_full_wedge_report_names_holders(self):
        """Satellite #1: the no-runnable-threads Deadlock now says what
        each blocked thread waits ON and who holds it."""
        kernel = make_kernel()
        abba(kernel)
        with pytest.raises(Deadlock) as excinfo:
            kernel.run_for(sec(1))
        message = str(excinfo.value)
        for token in ("ab", "ba", "A", "B", "blocked-monitor"):
            assert token in message
        assert excinfo.value.rows


class TestNoFalsePositives:
    def test_channel_wait_is_not_a_deadlock(self):
        """A thread blocked on a device channel waits on the outside
        world, not on another thread: never an edge, never a cycle."""
        kernel = make_kernel(watchdog=True)
        feed = kernel.channel("feed")

        def receiver():
            yield p.Channelreceive(feed)

        thread = kernel.fork_root(receiver, name="rx")
        kernel.fork_root(daemon_body, name="daemon")
        kernel.run_for(msec(500))
        assert thread.state is ThreadState.RECEIVING
        assert waits_on(thread) is None
        assert kernel.watchdog.deadlocks == []

    def test_join_on_a_running_thread_is_not_a_deadlock(self):
        kernel = make_kernel(watchdog=True)

        def worker():
            yield p.Compute(msec(400))

        def parent():
            handle = yield p.Fork(worker, name="worker", detached=False)
            yield p.Join(handle)

        kernel.fork_root(parent, name="parent")
        kernel.run_for(msec(200))
        assert kernel.watchdog.deadlocks == []
        kernel.run_for(sec(1))
        assert kernel.watchdog.deadlocks == []

    def test_timed_cv_wait_is_not_a_deadlock(self):
        """Even with the monitor's owner wedged elsewhere, a *timed*
        waiter self-wakes, so it gets no waits-for edge."""
        kernel = make_kernel(watchdog=True)
        lock = Monitor("m")
        cv = ConditionVariable(lock, "c")
        wakes = []

        def waiter():
            yield Enter(lock)
            try:
                wakes.append((yield Wait(cv, timeout=msec(100))))
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter, name="waiter")
        kernel.fork_root(daemon_body, name="daemon")
        kernel.run_for(msec(500))
        assert wakes == [False]  # timed out, as designed
        assert kernel.watchdog.deadlocks == []

    @pytest.mark.parametrize("name", sorted(s.name for s in resolve("golden")))
    def test_golden_scenarios_watchdog_on(self, name):
        """Acceptance: zero reports across every pinned scenario, and
        the watchdog's passivity keeps the fingerprints byte-identical."""
        golden = load_golden()
        seen = {}

        def probe(kernel):
            seen["deadlocks"] = list(kernel.watchdog.deadlocks)
            seen["starvation"] = list(kernel.watchdog.starvation)

        actual = golden_run(SCENARIOS[name], {"watchdog": True}, probe=probe)
        assert seen["deadlocks"] == []
        assert seen["starvation"] == []
        assert actual == golden[name]


class TestStarvation:
    def test_ready_but_never_dispatched_is_flagged_once(self):
        kernel = make_kernel(watchdog=True, quantum=msec(10))

        def hog():
            while True:
                yield p.Compute(msec(50))

        def meek():
            yield p.Compute(1)

        kernel.fork_root(hog, name="hog", priority=5)
        thread = kernel.fork_root(meek, name="meek", priority=1)
        kernel.run_for(3 * STARVATION_BUDGET)

        assert thread.state is ThreadState.READY  # truly starved
        reports = kernel.watchdog.starvation
        assert len(reports) == 1  # one episode -> one report
        report = reports[0]
        assert report.thread == "meek"
        assert report.starved_for >= STARVATION_BUDGET
        assert kernel.watchdog.deadlocks == []

    def test_round_robin_peers_are_not_starving(self):
        kernel = make_kernel(watchdog=True, quantum=msec(10))

        def worker():
            for _ in range(200):
                yield p.Compute(msec(20))

        kernel.fork_root(worker, name="w1", priority=3)
        kernel.fork_root(worker, name="w2", priority=3)
        kernel.run_for(3 * STARVATION_BUDGET)
        assert kernel.watchdog.starvation == []

    def test_dispatch_resets_the_clock(self):
        """A thread that runs, even briefly, is not starving; the episode
        clock restarts from its next READY stint."""
        kernel = make_kernel(watchdog=True, quantum=msec(10))

        def sometimes():
            while True:
                yield p.Compute(msec(1))
                yield p.Pause(msec(50))

        kernel.fork_root(sometimes, name="sometimes", priority=3)
        kernel.fork_root(daemon_body, name="daemon", priority=3)
        kernel.run_for(3 * STARVATION_BUDGET)
        assert kernel.watchdog.starvation == []


class TestReportRendering:
    def test_deadlock_rows_cover_runnable_threads_too(self):
        kernel = make_kernel(watchdog=True)
        abba(kernel)
        daemon = kernel.fork_root(daemon_body, name="daemon")
        kernel.run_for(sec(1))
        rows = deadlock_rows(
            t for t in kernel.threads.values() if t.alive
        )
        by_name = {row[0]: row for row in rows}
        assert by_name["daemon"][2] == "-"  # runnable: waits on nothing
        assert by_name["ab"][3] == "ba"  # holder named in the table
        assert by_name["ba"][3] == "ab"
        assert daemon.alive

    def test_describe_summarises_sweeps(self):
        kernel = make_kernel(watchdog=True)
        kernel.fork_root(daemon_body, name="daemon")
        kernel.run_for(msec(500))
        text = kernel.watchdog.describe()
        assert "no anomalies" in text
        assert kernel.watchdog.checks > 0
