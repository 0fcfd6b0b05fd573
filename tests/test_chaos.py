"""Chaos sweep runner (repro.analysis.chaos).

The sweep is the robustness acceptance harness: every run must satisfy
the kernel invariants (no leaked monitor holds, reconciled stats, every
injected partial deadlock detected) and the whole sweep must be
deterministic in its seed.
"""

from __future__ import annotations

import dataclasses
import json

from repro.analysis.chaos import (
    FaultPlan,
    plan_dict,
    run_one,
    run_sweep,
    sample_plan,
    verify_golden,
    write_report,
)
from repro.analysis.scenarios import EXPECT_DEADLOCK, SCENARIOS, resolve
from repro.kernel import Kernel, msec
from repro.kernel.primitives import Enter, Exit, Pause
from repro.kernel.rng import DeterministicRng
from repro.sync.monitor import Monitor

DIRECTED = resolve("chaos")
SWEEP = resolve("sweep")


def small_sweep(seed=0):
    return run_sweep(seed=seed, runs=3, check_golden=False)


class TestDirectedScenarios:
    def test_injected_partial_deadlocks_are_detected(self):
        """Acceptance: each directed wedge passes its invariants, and
        the deadlock-injecting ones are caught by the watchdog while a
        bystander stays runnable.  (The cluster wedged-shard scenario is
        directed congestion, not deadlock — its check asserts the
        breaker/re-route story instead, and the watchdog must stay
        quiet.)"""
        for scenario in DIRECTED:
            record = run_one(scenario, scenario.plan or FaultPlan(), seed=0)
            assert record.failures == [], scenario.name
            if scenario.expect == EXPECT_DEADLOCK:
                assert record.deadlocks >= 1, scenario.name
            else:
                assert record.deadlocks == 0, scenario.name

    def test_sweep_scenarios_survive_sampled_faults(self):
        rng = DeterministicRng(0).fork("chaos")
        scenario = SWEEP[0]
        record = run_one(scenario, sample_plan(rng), seed=0)
        assert record.failures == []


class TestSweep:
    def test_small_sweep_is_clean(self):
        report = small_sweep()
        assert report["ok"] is True
        assert report["summary"]["failed"] == 0
        assert report["summary"]["total"] == len(DIRECTED) + 3
        injected = sum(1 for s in DIRECTED if s.expect == EXPECT_DEADLOCK)
        assert report["summary"]["deadlocks_detected"] >= injected
        assert report["summary"]["faults_injected"] > 0

    def test_sweep_is_deterministic_in_its_seed(self):
        assert small_sweep(seed=5) == small_sweep(seed=5)

    def test_report_is_json_serialisable(self, tmp_path):
        report = small_sweep()
        path = tmp_path / "chaos.json"
        write_report(report, str(path))
        assert json.loads(path.read_text()) == json.loads(
            json.dumps(report)
        )

    def test_golden_verification_passes_with_faults_disarmed(self):
        verdict = verify_golden()
        assert verdict["ok"] is True
        assert verdict["mismatches"] == []


class TestPlanSampling:
    def test_sampled_plans_are_valid_and_deterministic(self):
        rng_a = DeterministicRng(1).fork("chaos")
        rng_b = DeterministicRng(1).fork("chaos")
        plans_a = [sample_plan(rng_a) for _ in range(10)]
        plans_b = [sample_plan(rng_b) for _ in range(10)]
        assert plans_a == plans_b
        for plan in plans_a:
            plan.validate()

    def test_plan_dict_round_trips_the_fields(self):
        plan = FaultPlan(drop_notify_prob=0.25, timer_jitter_prob=0.5,
                         timer_jitter_max=100)
        as_dict = plan_dict(plan)
        assert as_dict["drop_notify_prob"] == 0.25
        assert FaultPlan(**as_dict) == plan


class TestInvariantChecker:
    def test_flags_a_missing_deadlock_report(self):
        """Chaos's verdict is itself checked: an expected deadlock that
        the watchdog missed must surface as a failure."""
        record = run_one(
            # A world never deadlocks.
            dataclasses.replace(SWEEP[0], expect=EXPECT_DEADLOCK),
            FaultPlan(),
            seed=0,
        )
        assert any("deadlock" in failure for failure in record.failures)

    def test_flags_a_deadlock_with_no_live_bystander(self):
        """A deadlock entry must wedge only *part* of the system: the
        same ABBA cycle with no bystander thread beside it fails chaos."""

        def abba_alone(config):
            kernel = Kernel(config)
            m_a, m_b = Monitor("alone.a"), Monitor("alone.b")

            def grab(first, second):
                def body():
                    yield Enter(first)
                    yield Pause(msec(10))
                    yield Enter(second)
                    yield Exit(second)
                    yield Exit(first)

                return body

            kernel.fork_root(grab(m_a, m_b), name="first", priority=4)
            kernel.fork_root(grab(m_b, m_a), name="second", priority=4)
            return kernel, kernel.shutdown

        scenario = dataclasses.replace(
            SCENARIOS["abba"], name="abba-alone", build=abba_alone
        )
        record = run_one(scenario, FaultPlan(), seed=0)
        assert record.deadlocks == 1
        assert record.failures == [
            "deadlock detected but no unrelated thread is still live"
        ]

    def test_clean_kernel_passes(self):
        scenario = SWEEP[0]
        record = run_one(scenario, FaultPlan(), seed=0)
        assert record.failures == []
        assert record.faults == {}
