"""Inline burst burning must be unobservable.

``Kernel._resume`` burns a running thread's CPU burst in place, instead
of handing it back to the kernel loop, when the burst ends by the burn
limit: the latest instant before which the loop would do nothing else
(``Kernel._burn_limit``).  ``_resume`` keeps one limit across a run of
bursts, so the cases include the ways a kept limit could go stale.
Passing ``stop_when`` turns burning off, so ``run_for(...,
stop_when=never)`` is the per-instant reference path.  Every case here
runs both ways and requires equal golden fingerprints (full trace plus
statistics); each targeted case also checks that the plain run really
took the inline path, by counting kernel-loop passes.

The loop's own per-pass shortcuts change both paths alike, so the cases
for them (a stale donation, several preemptions at one instant, ticks
at boundaries nothing else falls on) also check the schedule itself.
"""

from __future__ import annotations

import pytest

from repro.analysis.faults import FaultPlan
from repro.analysis.golden import fingerprint, load_golden
from repro.analysis.scenarios import resolve
from repro.kernel import Kernel, KernelConfig, msec
from repro.kernel import primitives as p
from repro.kernel.instrumentation import CAT_SWITCH, CAT_TICK
from repro.kernel.primitives import Enter, Exit, Notify, Wait
from repro.sync import ConditionVariable, Monitor

GOLDEN = {scenario.name: scenario for scenario in resolve("golden")}


def never(kernel: Kernel) -> bool:
    return False


def count_passes(kernel: Kernel) -> list[int]:
    """Count kernel-loop passes: one ``_complete_due_bursts`` call each."""
    passes = [0]
    complete = kernel._complete_due_bursts

    def counted(horizon):
        passes[0] += 1
        complete(horizon)

    kernel._complete_due_bursts = counted
    return passes


def observe(kernel: Kernel) -> dict:
    seen = {"fingerprint": fingerprint(kernel)}
    if kernel.watchdog is not None:
        seen["sweeps"] = kernel.watchdog.checks
        seen["starvation"] = [
            (r.time, r.thread, r.ready_since) for r in kernel.watchdog.starvation
        ]
    return seen


def assert_inline_matches_reference(install, horizon, check=None, **config):
    """Run ``install``'s world plain and on the reference path; ``check``,
    if given, is asserted on the kernel after each run."""
    runs = []
    for stop_when in (None, never):
        kernel = Kernel(KernelConfig(seed=0, trace=True, **config))
        install(kernel)
        passes = count_passes(kernel)
        kernel.run_for(horizon, stop_when=stop_when)
        if check is not None:
            check(kernel)
        runs.append((observe(kernel), passes[0]))
        kernel.shutdown()
    (plain, plain_passes), (reference, reference_passes) = runs
    assert plain == reference
    assert plain_passes < reference_passes, "the inline path never ran"


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_entry_on_reference_path_matches_pin(name):
    scenario = GOLDEN[name]
    kernel, shutdown = scenario.build(KernelConfig(seed=0, trace=True))
    kernel.run_for(scenario.horizon, stop_when=never)
    actual = fingerprint(kernel)
    shutdown()
    assert actual == load_golden()[name]


def cruncher(burst, rounds=None):
    done = 0
    while rounds is None or done < rounds:
        yield p.Compute(burst)
        yield p.Annotate("crunch")
        done += 1


def test_burst_ending_on_a_needed_tick():
    # Round-robin keeps ticks needed.  The 5 ms bursts end exactly on
    # each 50 ms boundary, whose tick must still rotate; the 7 ms bursts
    # straddle boundaries and must not burn across them.
    def install(kernel):
        kernel.fork_root(cruncher, (msec(5),), name="five")
        kernel.fork_root(cruncher, (msec(7),), name="seven")

    assert_inline_matches_reference(install, msec(600), switch_cost=0)


def test_lone_bursts_ending_on_unneeded_ticks():
    # A lone thread needs no ticks, but its 5 ms bursts end exactly on
    # the 50 ms boundaries and the loop ticks on every boundary it
    # visits.  A limit kept past such a boundary would skip its tick.
    def install(kernel):
        kernel.fork_root(cruncher, (msec(5),), name="alone")

    assert_inline_matches_reference(install, msec(300), switch_cost=0)


def test_event_at_a_burst_end():
    # Bursts end every 3 ms; the events every 5 ms land on a burst end
    # at 15, 30, ... ms and inside a burst otherwise.  Each readies a
    # higher-priority receiver that preempts the cruncher for no time,
    # so with free switches the bursts stay on the 3 ms grid.
    def install(kernel):
        channel = kernel.channel("ticks")

        def receiver():
            while True:
                yield p.Channelreceive(channel)
                yield p.Annotate("received")

        kernel.fork_root(cruncher, (msec(3),), name="crunch")
        kernel.fork_root(receiver, name="receiver", priority=6)
        kernel.post_every(msec(5), lambda k: channel.post(k.now))

    assert_inline_matches_reference(install, msec(200), switch_cost=0)


def test_event_posted_by_the_running_thread():
    # As ``ReplicationLink._ship`` does, the body posts an event that
    # falls inside one of its own later bursts (7 ms on: inside the
    # third 3 ms burst).  A limit computed before the post would burn
    # past the event.
    def install(kernel):
        fired = []

        def shipper():
            while True:
                yield p.Compute(msec(2))
                kernel.post_at(kernel.now + msec(7), lambda k: fired.append(k.now))
                for _ in range(5):
                    yield p.Compute(msec(3))
                    yield p.Annotate("fired", len(fired))

        kernel.fork_root(shipper, name="shipper")

    assert_inline_matches_reference(install, msec(200), switch_cost=0)


def test_burst_split_across_two_runs():
    def run(split):
        kernel = Kernel(KernelConfig(seed=0, trace=True))
        stamps = []

        def worker():
            for _ in range(20):
                yield p.Compute(msec(3))
                stamps.append((yield p.GetTime()))

        kernel.fork_root(worker)
        passes = count_passes(kernel)
        if split:
            kernel.run_for(msec(10))
            assert kernel.now == msec(10)
            assert len(stamps) == 3  # the fourth burst spans the two runs
            kernel.run_for(msec(20))
        else:
            kernel.run_for(msec(30), stop_when=never)
        seen = (fingerprint(kernel), stamps)
        kernel.shutdown()
        return seen, passes[0]

    (split, split_passes), (whole, whole_passes) = run(True), run(False)
    assert split == whole
    assert split_passes < whole_passes


def test_two_cpus_finishing_at_the_same_instant():
    # The long burst on CPU 0 and a short one on CPU 1 end together
    # every 5 ms; CPU index order must decide who runs first there.
    def install(kernel):
        kernel.fork_root(cruncher, (msec(5),), name="long")
        kernel.fork_root(cruncher, (msec(1),), name="short")

    assert_inline_matches_reference(
        install, msec(100), ncpus=2, switch_cost=0
    )


def test_watchdog_sweep_due_inside_a_burst():
    # Sweeps every 10 ms fall inside the 3 ms bursts; the starved
    # low-priority thread is reported at the sweep's instant.
    def install(kernel):
        kernel.fork_root(cruncher, (msec(3),), name="hog", priority=5)
        kernel.fork_root(cruncher, (msec(1),), name="starved", priority=2)

    assert_inline_matches_reference(
        install, msec(300), watchdog=True, watchdog_interval=msec(10),
        starvation_budget=msec(25),
    )


def test_tick_driven_faults():
    # Only the fault plan needs ticks: the waiter sleeps untimed, and its
    # spurious wakeups are drawn at every tick of the busy worker's run.
    def install(kernel):
        busy, quiet = Monitor("busy"), Monitor("quiet")
        cv = ConditionVariable(quiet, "quiet.cv")

        def worker():
            while True:
                yield Enter(busy)
                try:
                    yield p.Compute(msec(2))
                finally:
                    yield Exit(busy)

        def waiter():
            while True:
                yield Enter(quiet)
                try:
                    woke = yield Wait(cv)
                    yield p.Annotate("woke", woke)
                finally:
                    yield Exit(quiet)

        kernel.fork_root(waiter, name="waiter", priority=5)
        kernel.fork_root(worker, name="worker")

    assert_inline_matches_reference(
        install, msec(500), fault_plan=FaultPlan(spurious_wakeup_prob=0.5)
    )


def test_notify_on_one_cpu_preempts_the_other():
    # The notifier on CPU 0 readies the waiter at its Exit; the waiter
    # outranks the thread burning on CPU 1, which must be preempted at
    # that instant, not when the notifier next returns to the loop.
    def install(kernel):
        lock = Monitor("m")
        cv = ConditionVariable(lock, "m.cv")

        def waiter():
            while True:
                yield Enter(lock)
                try:
                    yield Wait(cv)
                finally:
                    yield Exit(lock)
                yield p.Compute(msec(1))

        def notifier():
            while True:
                for _ in range(7):
                    yield p.Compute(msec(1))
                yield Enter(lock)
                try:
                    yield Notify(cv)
                finally:
                    yield Exit(lock)

        kernel.fork_root(waiter, name="waiter", priority=4)
        kernel.fork_root(notifier, name="notifier", priority=5)
        kernel.fork_root(cruncher, (msec(20),), name="low", priority=2)

    assert_inline_matches_reference(install, msec(200), ncpus=2)


def test_fork_readies_work_for_an_idle_cpu():
    # CPU 1 idles until the parent forks; the child must start on it at
    # the fork's instant.
    def install(kernel):
        def parent():
            while True:
                for _ in range(5):
                    yield p.Compute(msec(1))
                yield p.Fork(cruncher, (msec(2), 3))

        kernel.fork_root(parent, name="parent")

    assert_inline_matches_reference(install, msec(100), ncpus=2)


def switch_events(kernel: Kernel, kind: str) -> list[tuple]:
    return [
        (e.time, e.thread, e.detail)
        for e in kernel.tracer.by_category(CAT_SWITCH)
        if e.kind == kind
    ]


def test_stale_donation_on_an_idle_cpu():
    # ``donor`` gives CPU 0 to ``donee`` (YieldButNotToMe) and moves to
    # CPU 1 when ``hog`` ends there; the donee runs on CPU 0, then
    # blocks, so CPU 0 idles with nothing ready and a spent donation.
    # At 10 ms one event readies the donee and the higher-priority
    # ``high`` together: the idle CPU must take ``high``, not the donee.
    def install(kernel):
        wake, go = kernel.channel("wake"), kernel.channel("go")

        def hog():
            yield p.Compute(msec(2))

        def donor():
            yield p.Compute(msec(1))
            yield p.YieldButNotToMe()
            yield from cruncher(msec(1))

        def donee():
            yield p.Compute(msec(2))
            yield p.Channelreceive(wake)
            yield from cruncher(msec(1))

        def high():
            yield p.Channelreceive(go)
            yield from cruncher(msec(1))

        kernel.fork_root(hog, name="hog", priority=5)
        kernel.fork_root(donor, name="donor", priority=4)
        kernel.fork_root(donee, name="donee", priority=3)
        kernel.fork_root(high, name="high", priority=6)
        kernel.post_at(msec(10), lambda k: (wake.post(1), go.post(1)))

    def check(kernel):
        dispatches = switch_events(kernel, "dispatch")
        assert (msec(1), "donee", 0) in dispatches  # the donation ran
        assert (msec(2), "donor", 1) in dispatches
        assert [e for e in dispatches if e[0] == msec(10)][0] == (
            msec(10), "high", 0
        )

    assert_inline_matches_reference(
        install, msec(30), check, ncpus=2, switch_cost=0
    )


def test_two_preemptions_at_one_instant():
    # Three CPUs run low-priority crunchers; one event readies two
    # higher-priority threads.  Every runner they outrank is preempted
    # at that instant, in CPU index order (the preempted thread goes
    # back to the front of its queue, so CPU 2 takes its own runner back).
    def install(kernel):
        def ready_highs(kernel):
            for name in ("high0", "high1"):
                kernel.fork_root(cruncher, (msec(3), 2), name=name, priority=5)

        for name, burst in (("low0", 1), ("low1", 7), ("low2", 11)):
            kernel.fork_root(cruncher, (msec(burst),), name=name, priority=2)
        kernel.post_at(msec(20) + 500, ready_highs)

    def check(kernel):
        at = msec(20) + 500
        preempted = [e for e in switch_events(kernel, "preempt") if e[0] == at]
        assert preempted == [
            (at, "low0", None), (at, "low1", None), (at, "low2", None)
        ]
        assert [
            e for e in switch_events(kernel, "dispatch") if e[0] == at
        ] == [(at, "high0", 0), (at, "high1", 1), (at, "low2", 2)]

    assert_inline_matches_reference(
        install, msec(60), check, ncpus=3, switch_cost=0
    )


def test_ticks_only_at_boundaries_that_need_them():
    # The cruncher's 7 ms bursts end on no boundary, so every boundary
    # here falls before the next event or burst end.  A tick is needed
    # at 50 ms (the sleeper is ready and rotates in), at 100 ms (its
    # 70 ms pause is pending) and at 150 ms (it wakes), but not at 200
    # or 250 ms, where the cruncher runs alone.
    def install(kernel):
        def sleeper():
            yield p.Pause(msec(70))
            yield p.Annotate("awake")

        kernel.fork_root(cruncher, (msec(7),), name="crunch")
        kernel.fork_root(sleeper, name="sleeper")

    def check(kernel):
        ticks = [e.time for e in kernel.tracer.by_category(CAT_TICK)]
        assert ticks == [msec(50), msec(100), msec(150)]

    assert_inline_matches_reference(install, msec(300), check, switch_cost=0)
