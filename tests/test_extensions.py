"""Future-work extensions: adaptive timeouts and fair-share scheduling."""

import pytest

from repro.extensions.adaptive_timeout import AdaptiveTimeout, run_rpc_experiment
from repro.casestudies.inversion import run_inversion
from repro.extensions.fair_share import run_reactivity
from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p


class TestAdaptiveTimeoutEstimator:
    def test_initial_timeout_before_samples(self):
        timer = AdaptiveTimeout(initial=msec(500))
        assert timer.timeout == msec(500)
        assert timer.samples == 0

    def test_converges_toward_observed_rtt(self):
        timer = AdaptiveTimeout(initial=msec(500), floor=msec(1))
        for _ in range(100):
            timer.observe(msec(10))
        # Steady 10 ms responses: timeout settles near srtt (variance -> 0).
        assert msec(8) <= timer.timeout <= msec(20)

    def test_grows_with_variance(self):
        steady = AdaptiveTimeout(floor=msec(1))
        jittery = AdaptiveTimeout(floor=msec(1))
        for i in range(100):
            steady.observe(msec(10))
            jittery.observe(msec(10) if i % 2 else msec(50))
        assert jittery.timeout > steady.timeout

    def test_clamped_to_floor_and_ceiling(self):
        timer = AdaptiveTimeout(floor=msec(100), ceiling=msec(200))
        for _ in range(50):
            timer.observe(usec(10))
        assert timer.timeout == msec(100)
        for _ in range(50):
            timer.observe(sec(10))
        assert timer.timeout == msec(200)

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError):
            AdaptiveTimeout(floor=0)
        with pytest.raises(ValueError):
            AdaptiveTimeout(floor=msec(10), ceiling=msec(5))
        timer = AdaptiveTimeout()
        with pytest.raises(ValueError):
            timer.observe(-1)


class TestRpcExperiment:
    def test_fixed_policy_completes_healthy_calls(self):
        result = run_rpc_experiment(policy="fixed", calls=10)
        assert result.completed == 10
        assert result.crash_detection_time is not None

    def test_adaptive_detects_crash_faster_on_fast_server(self):
        fixed = run_rpc_experiment(
            policy="fixed", fixed_timeout=msec(400),
            server_response=msec(4), calls=15,
        )
        adaptive = run_rpc_experiment(
            policy="adaptive", fixed_timeout=msec(400),
            server_response=msec(4), calls=15,
        )
        assert adaptive.crash_detection_time < fixed.crash_detection_time

    def test_fixed_misfires_on_slow_server(self):
        result = run_rpc_experiment(
            policy="fixed", fixed_timeout=msec(400),
            server_response=msec(320), calls=20,
        )
        assert result.spurious_timeouts >= 1

    def test_adaptive_timeout_history_adapts(self):
        result = run_rpc_experiment(
            policy="adaptive", fixed_timeout=msec(400),
            server_response=msec(10), calls=20,
        )
        # Starts at the stale constant, ends near the real response time.
        assert result.timeouts_used[0] == msec(400)
        assert result.final_timeout < msec(100)


class TestFairShareScheduler:
    def test_strict_policy_unchanged_by_default(self):
        kernel = Kernel(KernelConfig())
        assert kernel.scheduler.policy == "strict"
        kernel.shutdown()

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError):
            KernelConfig(scheduler_policy="lottery-ish")

    def test_fair_share_gives_low_priority_a_share(self):
        kernel = Kernel(KernelConfig(scheduler_policy="fair_share", seed=1))

        def grinder(tag):
            while True:
                yield p.Compute(msec(5))

        high = kernel.fork_root(grinder, ("high",), priority=6)
        low = kernel.fork_root(grinder, ("low",), priority=2)
        kernel.run_for(sec(10))
        # Strict priority would give low exactly zero.  Fair share gives
        # it roughly tickets(2)/(tickets(2)+tickets(6)) = 2/34 ~ 6%.
        assert low.stats.cpu_time > 0
        share = low.stats.cpu_time / (low.stats.cpu_time + high.stats.cpu_time)
        assert 0.01 <= share <= 0.20
        kernel.shutdown()

    def test_fair_share_share_scales_with_priority(self):
        kernel = Kernel(KernelConfig(scheduler_policy="fair_share", seed=2))

        def grinder():
            while True:
                yield p.Compute(msec(5))

        threads = [
            kernel.fork_root(grinder, priority=level, name=f"p{level}")
            for level in (2, 4, 6)
        ]
        kernel.run_for(sec(20))
        times = [t.stats.cpu_time for t in threads]
        assert times[0] < times[1] < times[2]
        kernel.shutdown()

    def test_fair_share_is_deterministic(self):
        def run():
            kernel = Kernel(KernelConfig(scheduler_policy="fair_share", seed=9))

            def grinder():
                while True:
                    yield p.Compute(msec(3))

            threads = [
                kernel.fork_root(grinder, priority=1 + i, name=f"t{i}")
                for i in range(4)
            ]
            kernel.run_for(sec(3))
            times = tuple(t.stats.cpu_time for t in threads)
            kernel.shutdown()
            return times

        assert run() == run()

    def test_inversion_self_clears_under_fair_share(self):
        strict = run_inversion(policy="strict", run_length=sec(3))
        fair = run_inversion(policy="fair_share", run_length=sec(3))
        assert strict.acquired_at is None
        assert fair.acquired_at is not None
        assert fair.variant == "bare"  # no daemon, no inheritance

    def test_reactivity_suffers_under_fair_share(self):
        strict = run_reactivity(policy="strict", keystrokes=10)
        fair = run_reactivity(policy="fair_share", keystrokes=10)
        assert len(strict.echo_latencies) == 10
        assert strict.mean_latency < msec(1)
        assert fair.mean_latency > 5 * strict.mean_latency


class TestFairShareMultiprocessor:
    def test_fair_share_on_two_cpus(self):
        kernel = Kernel(
            KernelConfig(scheduler_policy="fair_share", seed=4, ncpus=2)
        )

        def grinder():
            while True:
                yield p.Compute(msec(5))

        threads = [
            kernel.fork_root(grinder, priority=level, name=f"p{level}")
            for level in (2, 4, 6)
        ]
        kernel.run_for(sec(10))
        times = [t.stats.cpu_time for t in threads]
        # Two CPUs, three grinders: everyone runs, shares still scale
        # with priority, and total CPU approximately fills both cores.
        assert all(t > 0 for t in times)
        assert times[0] <= times[1] <= times[2]
        assert sum(times) >= 1.8 * sec(10)
        kernel.shutdown()
