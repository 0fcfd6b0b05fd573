"""Seeded fault injection (repro.analysis.faults).

Covers the determinism contract (zero-rate plan is byte-identical to no
plan; each decision draws from its own stream, forked by kind and
sequence number off a dedicated fork of the kernel seed, so kinds are
independent and a recording controller changes nothing) and each fault
kind end to end: injected,
counted in ``GlobalStats.fault_counts``, traced under ``CAT_FAULT``, and
producing exactly the failure mode it models.
"""

from __future__ import annotations

import pytest

from repro.analysis.chaos import CHAOS_RUN, sample_plan
from repro.analysis.faults import FaultInjector, FaultPlan
from repro.analysis.golden import fingerprint, golden_run, load_golden
from repro.analysis.scenarios import SCENARIOS, resolve
from repro.explore import ScheduleController
from repro.kernel import (
    ForkFailed,
    Kernel,
    KernelConfig,
    ThreadKilled,
    ThreadState,
    msec,
    sec,
)
from repro.kernel import primitives as p
from repro.kernel.instrumentation import CAT_FAULT
from repro.kernel.primitives import Enter, Exit, Notify, Wait
from repro.kernel.rng import DeterministicRng
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor


def make_kernel(**overrides):
    defaults = dict(switch_cost=0, monitor_overhead=0)
    defaults.update(overrides)
    return Kernel(KernelConfig(**defaults))


class TestPlanValidation:
    def test_probabilities_bounded(self):
        with pytest.raises(ValueError):
            FaultPlan(drop_notify_prob=1.5).validate()
        with pytest.raises(ValueError):
            FaultPlan(kill_thread_prob=-0.1).validate()

    def test_jitter_needs_a_bound(self):
        with pytest.raises(ValueError):
            FaultPlan(timer_jitter_prob=0.5).validate()

    def test_config_validates_the_plan(self):
        with pytest.raises(ValueError):
            KernelConfig(fault_plan=FaultPlan(fork_fail_prob=2.0))

    def test_zero_plan_is_valid_and_wants_no_ticks(self):
        plan = FaultPlan()
        plan.validate()
        assert not plan.wants_ticks
        assert FaultPlan(kill_thread_prob=0.1).wants_ticks
        assert FaultPlan(spurious_wakeup_prob=0.1).wants_ticks


class TestDeterminism:
    def test_zero_plan_reproduces_golden_hashes(self):
        """A plan with every rate at zero draws nothing and perturbs
        nothing: the pinned golden fingerprint must match exactly."""
        golden = load_golden()
        for name in ("timed-waits", "fork-churn"):
            actual = golden_run(SCENARIOS[name], {"fault_plan": FaultPlan()})
            assert actual == golden[name], name

    def test_faults_on_runs_are_deterministic(self):
        plan = FaultPlan(
            drop_notify_prob=0.3,
            spurious_wakeup_prob=0.1,
            timer_jitter_prob=0.5,
            timer_jitter_max=msec(10),
        )
        first = golden_run(SCENARIOS["timed-waits"], {"fault_plan": plan})
        second = golden_run(SCENARIOS["timed-waits"], {"fault_plan": plan})
        assert first == second

    def test_per_kind_streams_are_independent(self):
        """Draws of one fault kind must not shift another kind's
        sequence: each decision forks its own stream by kind and number."""
        k1 = make_kernel(seed=7, fault_plan=FaultPlan(drop_notify_prob=0.3))
        baseline = [k1.faults.steal_notify() for _ in range(64)]
        assert any(baseline) and not all(baseline)

        k2 = make_kernel(
            seed=7,
            fault_plan=FaultPlan(
                drop_notify_prob=0.3,
                fork_fail_prob=0.5,
                timer_jitter_prob=0.5,
                timer_jitter_max=100,
            ),
        )
        for _ in range(32):  # churn the other kinds' streams
            k2.faults.fail_fork()
            k2.faults.timer_jitter()
        assert [k2.faults.steal_notify() for _ in range(64)] == baseline

    def test_fault_stream_is_independent_of_kernel_rng(self):
        """Kernel randomness (scheduler lottery, at-least-one wakes) and
        fault decisions must not perturb each other."""
        k1 = make_kernel(seed=7, fault_plan=FaultPlan(drop_notify_prob=0.3))
        baseline = [k1.faults.steal_notify() for _ in range(64)]
        k2 = make_kernel(seed=7, fault_plan=FaultPlan(drop_notify_prob=0.3))
        kernel_draws = [k2.rng.uniform() for _ in range(100)]
        assert [k2.faults.steal_notify() for _ in range(64)] == baseline
        k3 = make_kernel(seed=7, fault_plan=FaultPlan(drop_notify_prob=0.3))
        for _ in range(64):
            k3.faults.steal_notify()
        assert [k3.rng.uniform() for _ in range(100)] == kernel_draws

    def test_injector_uses_the_dedicated_faults_fork(self):
        """Pins the stream derivation: kernel seed -> fork('faults') ->
        one fork per decision, labelled by kind and sequence number.  A
        regression here silently reseeds every chaos run."""
        kernel = make_kernel(
            seed=11, fault_plan=FaultPlan(drop_notify_prob=0.25)
        )
        faults = DeterministicRng(11).fork("faults")
        expected = [
            faults.fork(f"drop_notify:{seq}").chance(0.25) for seq in range(32)
        ]
        assert any(expected) and not all(expected)
        assert [kernel.faults.steal_notify() for _ in range(32)] == expected


def _sweep_runs():
    """The sweep entries with the plans ``chaos --runs 13`` samples at
    seed 0: run ``i`` is entry ``i`` under plan ``i`` at kernel seed
    ``i``."""
    rng = DeterministicRng(0).fork("chaos")
    return [
        pytest.param(scenario, sample_plan(rng), index, id=scenario.name)
        for index, scenario in enumerate(resolve("sweep"))
    ]


class TestRecordModeUnderFaults:
    @pytest.mark.parametrize("scenario,plan,seed", _sweep_runs())
    def test_recording_controller_changes_nothing(self, scenario, plan, seed):
        """Record mode is an uncontrolled run, faults included: the
        injector numbers its decisions exactly as the controller does,
        so attaching one moves no fault and no schedule."""

        def run(controller):
            kernel, shutdown = scenario.build(KernelConfig(
                seed=seed, trace=True, fault_plan=plan, watchdog=True,
                schedule_controller=controller,
            ))
            try:
                kernel.run_until(CHAOS_RUN, raise_on_deadlock=False)
                return fingerprint(kernel), dict(kernel.stats.fault_counts)
            finally:
                shutdown()

        assert run(ScheduleController()) == run(None)

    def test_a_single_candidate_victim_is_not_numbered(self):
        """A victim pick among one candidate is no decision: the injector
        must not number it, as the controller does not, or every later
        victim pick would draw from another stream."""

        def run(controller):
            kernel = make_kernel(
                seed=5, trace=True, schedule_controller=controller,
                fault_plan=FaultPlan(spurious_wakeup_prob=1.0),
            )
            lock = Monitor("m")
            cv = ConditionVariable(lock, "c")

            def waiter(delay):
                def body():
                    yield p.Pause(delay)
                    yield Enter(lock)
                    try:
                        while True:
                            yield Wait(cv)
                    finally:
                        yield Exit(lock)

                return body

            kernel.fork_root(waiter(0), name="early")
            for index in range(3):
                kernel.fork_root(waiter(msec(200)), name=f"late{index}")
            kernel.run_for(sec(1))
            victims = [e.thread for e in kernel.tracer.events
                       if e.category == CAT_FAULT]
            kernel.shutdown()
            return victims

        uncontrolled = run(None)
        assert uncontrolled[0] == "early"  # alone on the CV at first
        assert len(set(uncontrolled)) > 2
        assert run(ScheduleController()) == uncontrolled


class TestDropNotify:
    def _run(self, drop: float):
        kernel = make_kernel(
            seed=0,
            trace=True,
            fault_plan=FaultPlan(drop_notify_prob=drop),
        )
        lock = Monitor("m")
        cv = ConditionVariable(lock, "c")
        state = {"ready": False, "woken_by_notify": None}

        def waiter():
            yield Enter(lock)
            try:
                while not state["ready"]:
                    # Long enough that the notifier (woken at the 50ms
                    # tick) always finds the waiter still on the CV.
                    notified = yield Wait(cv, timeout=msec(120))
                    if state["woken_by_notify"] is None:
                        state["woken_by_notify"] = notified
            finally:
                yield Exit(lock)

        def notifier():
            yield p.Pause(msec(5))
            yield Enter(lock)
            try:
                state["ready"] = True
                yield Notify(cv)
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter, name="waiter")
        kernel.fork_root(notifier, name="notifier")
        kernel.run_for(sec(1))
        return kernel, state

    def test_stolen_notify_forces_the_timeout_path(self):
        kernel, state = self._run(drop=1.0)
        # The wake was lost; the loop idiom recovered via its timeout.
        assert kernel.stats.fault_counts["drop_notify"] == 1
        assert state["woken_by_notify"] is False
        assert kernel.stats.cv_timeouts >= 1
        events = [e for e in kernel.tracer.events if e.category == CAT_FAULT]
        assert [e.kind for e in events] == ["drop_notify"]

    def test_no_steal_at_zero_rate(self):
        kernel, state = self._run(drop=0.0)
        assert kernel.stats.fault_counts == {}
        assert state["woken_by_notify"] is True

    def test_notify_without_waiters_never_consults_the_injector(self):
        """A NOTIFY on an empty CV is a no-op; burning a fault draw on it
        would skew the per-opportunity rate."""
        kernel = make_kernel(
            seed=0, fault_plan=FaultPlan(drop_notify_prob=1.0)
        )
        lock = Monitor("m")
        cv = ConditionVariable(lock, "c")

        def notifier():
            yield Enter(lock)
            try:
                yield Notify(cv)
            finally:
                yield Exit(lock)

        kernel.fork_root(notifier)
        kernel.run_for(msec(10))
        assert kernel.stats.fault_counts == {}


class TestSpuriousWakeup:
    def test_waiter_wakes_with_no_notify_and_wait_returns_true(self):
        kernel = make_kernel(
            seed=0,
            trace=True,
            fault_plan=FaultPlan(spurious_wakeup_prob=1.0),
        )
        lock = Monitor("m")
        cv = ConditionVariable(lock, "c")
        wakes = []

        def waiter():
            yield Enter(lock)
            try:
                wakes.append((yield Wait(cv)))  # untimed: only a fault wakes it
            finally:
                yield Exit(lock)

        kernel.fork_root(waiter, name="waiter")
        kernel.run_for(msec(200))
        assert wakes == [True]  # indistinguishable from a real NOTIFY
        assert kernel.stats.fault_counts["spurious_wakeup"] >= 1
        assert kernel.stats.cv_notifies == 0
        kinds = {e.kind for e in kernel.tracer.events
                 if e.category == CAT_FAULT}
        assert kinds == {"spurious_wakeup"}


class TestForkFail:
    def test_raise_policy_raises_fork_failed(self):
        kernel = make_kernel(
            seed=0,
            fork_failure="raise",
            fault_plan=FaultPlan(fork_fail_prob=1.0),
        )
        outcomes = []

        def child():
            yield p.Compute(1)

        def parent():
            try:
                yield p.Fork(child)
                outcomes.append("forked")
            except ForkFailed:
                outcomes.append("denied")

        kernel.fork_root(parent)
        kernel.run_for(msec(100))
        assert outcomes == ["denied"]
        assert kernel.stats.fault_counts["fork_fail"] == 1
        assert kernel.stats.fork_failures == 1

    def test_wait_policy_releases_at_the_next_tick(self):
        kernel = make_kernel(
            seed=0,
            fork_failure="wait",
            fault_plan=FaultPlan(fork_fail_prob=1.0),
        )
        done = []

        def child():
            yield p.Compute(1)
            done.append("child")

        def parent():
            handle = yield p.Fork(child, detached=False)
            yield p.Join(handle)
            done.append("parent")

        kernel.fork_root(parent)
        kernel.run_for(sec(1))
        # Every FORK is feigned-denied, waits one tick, then proceeds.
        assert done == ["child", "parent"]
        assert kernel.stats.fault_counts["fork_fail"] == 1
        assert kernel.stats.fork_waits == 1


class TestKill:
    def test_killed_thread_releases_monitors_and_is_not_an_error(self):
        kernel = make_kernel(
            seed=0,
            fault_plan=FaultPlan(kill_thread_prob=1.0),
        )
        lock = Monitor("m")
        survived = []

        def victim():
            yield Enter(lock)
            try:
                while True:
                    yield p.Compute(msec(5))
            finally:
                yield Exit(lock)

        def prober():
            yield p.Pause(msec(200))
            yield Enter(lock)  # only acquirable if the kill released it
            try:
                survived.append("acquired")
            finally:
                yield Exit(lock)

        victim_thread = kernel.fork_root(victim, name="victim")
        kernel.fork_root(prober, name="prober", priority=7)
        kernel.run_for(sec(1))  # must not raise: kills are not errors
        assert victim_thread.state is ThreadState.DONE
        assert isinstance(victim_thread.error, ThreadKilled)
        assert lock.owner is None
        assert victim_thread.held_monitors == []
        assert kernel.stats.fault_counts["kill"] >= 1
        assert kernel.pending_thread_errors == []

    def test_kill_immune_prefixes_are_never_targeted(self):
        kernel = make_kernel(
            seed=0,
            fault_plan=FaultPlan(
                kill_thread_prob=1.0, kill_immune=("precious",)
            ),
        )

        def worker():
            for _ in range(100):
                yield p.Compute(msec(2))

        thread = kernel.fork_root(worker, name="precious-worker")
        kernel.run_for(sec(1))
        assert thread.error is None
        assert "kill" not in kernel.stats.fault_counts

    def test_joiner_still_sees_the_death(self):
        kernel = make_kernel(
            seed=0,
            fault_plan=FaultPlan(kill_thread_prob=1.0, kill_immune=("parent",)),
        )
        seen = []

        def child():
            while True:
                yield p.Compute(msec(5))

        def parent():
            handle = yield p.Fork(child, name="child", detached=False)
            try:
                yield p.Join(handle)
            except Exception as error:  # noqa: BLE001
                seen.append(error)

        kernel.fork_root(parent, name="parent")
        kernel.run_for(sec(1))
        assert len(seen) == 1
        assert isinstance(seen[0].original, ThreadKilled)


class TestTimerJitter:
    def test_jitter_delays_the_wake_deterministically(self):
        """Replays the first timer decision's stream to predict the exact
        jitter, then asserts the sleeper woke at exactly the jittered
        tick."""
        seed, jitter_max = 3, msec(60)
        plan = FaultPlan(timer_jitter_prob=1.0, timer_jitter_max=jitter_max)
        kernel = make_kernel(seed=seed, fault_plan=plan)
        woke_at = []

        def sleeper():
            yield p.Pause(msec(45))
            woke_at.append((yield p.GetTime()))

        kernel.fork_root(sleeper)
        kernel.run_for(sec(1))

        # chance(1.0) short-circuits without drawing, so the jitter is the
        # stream's first randint.
        stream = DeterministicRng(seed).fork("faults").fork("timer_jitter:0")
        jitter = stream.randint(1, jitter_max)
        deadline = msec(45) + jitter
        quantum = kernel.config.quantum
        expected_tick = ((deadline + quantum - 1) // quantum) * quantum
        assert woke_at == [expected_tick]
        assert kernel.stats.fault_counts["timer_jitter"] == 1

    def test_no_jitter_at_zero_rate(self):
        kernel = make_kernel(seed=3, fault_plan=FaultPlan())
        woke_at = []

        def sleeper():
            yield p.Pause(msec(45))
            woke_at.append((yield p.GetTime()))

        kernel.fork_root(sleeper)
        kernel.run_for(sec(1))
        assert woke_at == [msec(50)]  # the first tick after the deadline


class TestInjectorSurface:
    def test_kernel_without_plan_has_no_injector(self):
        assert make_kernel().faults is None

    def test_injector_is_wired_with_the_plan(self):
        plan = FaultPlan(drop_notify_prob=0.5)
        kernel = make_kernel(fault_plan=plan)
        assert isinstance(kernel.faults, FaultInjector)
        assert kernel.faults.plan is plan
