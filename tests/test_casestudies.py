"""Case-study experiments: qualitative shape of each Sections 5-6 lesson
(the quantitative paper-vs-measured tables live in benchmarks/)."""

import pytest

from repro.casestudies.echo_pipeline import run_echo_pipeline
from repro.casestudies.fork_failure import run_fork_storm
from repro.casestudies.inversion import run_inversion
from repro.casestudies.spurious import run_producer_consumer
from repro.casestudies.wait_bugs import run_if_wait_bug, run_missing_notify
from repro.casestudies.weakmem import run_init_once, run_publication
from repro.casestudies.xclients import run_xl, run_xlib
from repro.kernel.simtime import msec, sec


class TestEchoPipeline:
    def test_all_keystrokes_echoed(self):
        result = run_echo_pipeline(strategy="ybntm", keystrokes=10)
        assert len(result.echo_latencies) == 10
        assert all(latency > 0 for latency in result.echo_latencies)

    def test_plain_yield_ships_requests_individually(self):
        result = run_echo_pipeline(strategy="yield", keystrokes=10)
        assert result.mean_batch == pytest.approx(1.0)

    def test_no_slack_baseline_also_unbatched(self):
        result = run_echo_pipeline(strategy="none", keystrokes=10)
        assert result.mean_batch <= 1.5

    def test_deterministic_for_fixed_seed(self):
        first = run_echo_pipeline(strategy="ybntm", keystrokes=10)
        second = run_echo_pipeline(strategy="ybntm", keystrokes=10)
        assert first.echo_latencies == second.echo_latencies
        assert first.switches == second.switches


class TestSpurious:
    def test_immediate_semantics_wastes_dispatches(self):
        immediate = run_producer_consumer(notify_semantics="immediate", items=20)
        deferred = run_producer_consumer(notify_semantics="deferred", items=20)
        assert immediate.spurious_conflicts >= 18
        assert deferred.spurious_conflicts == 0
        assert immediate.dispatches > deferred.dispatches

    def test_equal_priorities_have_no_spurious_conflicts(self):
        result = run_producer_consumer(
            notify_semantics="immediate",
            consumer_priority=4,
            producer_priority=4,
            items=20,
        )
        # Same priority: the notifyee cannot preempt the notifier, so it
        # only runs after the monitor exit — no useless trip.
        assert result.spurious_conflicts == 0


class TestInversion:
    def test_bare_inversion_is_stable(self):
        result = run_inversion(run_length=sec(3))
        assert result.acquired_at is None

    def test_daemon_workaround_recovers(self):
        result = run_inversion(daemon=True, run_length=sec(3))
        assert result.acquired_at is not None

    def test_inheritance_beats_daemon(self):
        daemon = run_inversion(daemon=True, run_length=sec(3))
        inheritance = run_inversion(inheritance=True, run_length=sec(3))
        assert inheritance.blocked_for <= daemon.blocked_for


class TestWaitBugs:
    def test_if_wait_underflows(self):
        result = run_if_wait_bug(style="if")
        assert result.underflows == 1
        assert result.consumed == 1

    def test_while_wait_is_safe(self):
        result = run_if_wait_bug(style="while")
        assert result.underflows == 0

    def test_missing_notify_is_timeout_paced(self):
        buggy = run_missing_notify(notify_present=False, items=10)
        correct = run_missing_notify(notify_present=True, items=10)
        assert buggy.items == correct.items == 10
        # The masked bug completes at CV-timeout granularity.
        assert buggy.completion_time >= msec(100)
        assert correct.completion_time < msec(20)

    def test_shorter_cv_timeout_masks_faster_but_still_slow(self):
        slow = run_missing_notify(notify_present=False, cv_timeout=msec(200))
        fast = run_missing_notify(notify_present=False, cv_timeout=msec(50))
        assert fast.completion_time < slow.completion_time


class TestForkFailure:
    def test_raise_policy_drops_requests(self):
        result = run_fork_storm(policy="raise", requests=20, max_threads=5)
        assert result.failures > 0
        assert result.completed + result.failures == 20

    def test_wait_policy_completes_all_slowly(self):
        result = run_fork_storm(policy="wait", requests=20, max_threads=5)
        assert result.failures == 0
        assert result.completed == 20
        assert result.max_latency > msec(50)


class TestWeakMemory:
    def test_publication_safe_under_strong_ordering(self):
        result = run_publication(model="sc", rounds=20)
        assert result.torn_reads == 0

    def test_publication_tears_under_weak_ordering(self):
        result = run_publication(model="pso", rounds=50)
        assert result.torn_reads >= 5

    def test_monitor_fences_repair_weak_ordering(self):
        result = run_publication(model="pso", monitored=True, rounds=20)
        assert result.torn_reads == 0

    def test_init_once_hazard_across_seeds(self):
        weak_hits = sum(
            run_init_once(model="pso", seed=s).saw_uninitialised
            for s in range(10)
        )
        fenced_hits = sum(
            run_init_once(model="pso", fenced=True, seed=s).saw_uninitialised
            for s in range(10)
        )
        assert weak_hits >= 1
        assert fenced_hits == 0


class TestXClients:
    def test_xlib_run_completes_and_stalls(self):
        result = run_xlib()
        assert result.events_received == 5
        assert result.lock_contention_blocks > 0

    def test_xl_run_completes_without_contention(self):
        result = run_xl()
        assert result.events_received == 5
        assert result.lock_contention_blocks == 0
        assert result.requests_shipped < result.paints  # merging worked
