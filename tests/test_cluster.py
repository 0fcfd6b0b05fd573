"""The sharded cluster world (repro.cluster).

Covers the deterministic token bucket, the weighted-fair admission
queue's invariants (weighted shares, isolation, no starvation,
determinism), and the cluster itself: seed -> digest determinism,
healthy steady-state, policy sensitivity, token-bucket wiring and the
wedged-shard health-breaker path.
"""

from types import SimpleNamespace

import pytest

from repro.cluster import TokenBucket, WfqQueue, run_cluster
from repro.cluster.admission import SCALE
from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p

RUN = msec(600)


def item(tenant: str, value: int = 0) -> SimpleNamespace:
    """A minimal queueable: anything with ``.tenant.name``."""
    return SimpleNamespace(tenant=SimpleNamespace(name=tenant), value=value)


def drive(genfn, *, duration=sec(2), seed=0):
    """Run one root generator to completion on a fresh kernel."""
    kernel = Kernel(KernelConfig(seed=seed, switch_cost=0,
                                 monitor_overhead=0))
    out = {}

    def runner():
        out["result"] = yield from genfn()

    kernel.fork_root(runner)
    kernel.run_for(duration)
    return out["result"]


# ---------------------------------------------------------------------------
# TokenBucket
# ---------------------------------------------------------------------------

class TestTokenBucket:
    def test_burst_then_throttle(self):
        bucket = TokenBucket(100, burst=3)
        assert [bucket.take(0) for _ in range(4)] == [True, True, True, False]
        assert bucket.taken == 3
        assert bucket.throttled == 1

    def test_refill_is_exact_over_time(self):
        """After T seconds exactly floor(rate*T) tokens beyond the burst
        have been issued, however often take() polled (carry math)."""
        bucket = TokenBucket(333, burst=2)
        granted = 0
        for now in range(0, 1_000_001, 1000):  # poll every 1 ms for 1 s
            while bucket.take(now):
                granted += 1
        assert granted == 2 + 333

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(1000, burst=4)
        assert bucket.take(0)
        bucket._refill(sec(10))  # aeons pass
        assert bucket.tokens == 4

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(1000, burst=1)
        assert bucket.take(usec(5000))
        assert not bucket.take(usec(1000))  # stale timestamp: no refill

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(0, burst=1)
        with pytest.raises(ValueError):
            TokenBucket(100, burst=0)


# ---------------------------------------------------------------------------
# WfqQueue invariants
# ---------------------------------------------------------------------------

class TestWfqQueue:
    def test_weighted_shares_under_backlog(self):
        """Both tenants saturated: service is proportional to weight.
        With weights 1:3 the first 12 dequeues split exactly 3:9."""
        q = WfqQueue("q", capacity=16, weights={"a": 1, "b": 3})

        def scenario():
            for i in range(12):
                assert (yield from q.try_put(item("a", i)))
                assert (yield from q.try_put(item("b", i)))
            for _ in range(12):
                yield from q.get()
            return dict(q.served)

        served = drive(scenario)
        assert served == {"a": 3, "b": 9}

    def test_low_weight_tenant_is_not_starved(self):
        """Weight 1 against weight 8, both permanently backlogged: the
        low-weight tenant still gets ~1/9 of the service, never zero."""
        q = WfqQueue("q", capacity=32, weights={"low": 1, "high": 8})

        def scenario():
            for i in range(18):
                assert (yield from q.try_put(item("low", i)))
                assert (yield from q.try_put(item("high", i)))
            for _ in range(18):
                yield from q.get()
            return dict(q.served)

        served = drive(scenario)
        assert served["low"] >= 1
        assert served["high"] >= 8 * served["low"] - 8  # ~8:1, integer slop

    def test_per_tenant_isolation(self):
        """A flood fills only its own sub-queue: its puts reject while a
        quiet tenant's puts still land."""
        q = WfqQueue("q", capacity=4, weights={"flood": 1, "quiet": 1})

        def scenario():
            accepted = 0
            for i in range(10):
                ok = yield from q.try_put(item("flood", i))
                accepted += bool(ok)
            quiet_ok = yield from q.try_put(item("quiet"))
            return accepted, quiet_ok

        accepted, quiet_ok = drive(scenario)
        assert accepted == 4
        assert quiet_ok is True
        assert q.rejects == 6
        assert q.depth_of("flood") == 4
        assert q.depth_of("quiet") == 1

    def test_idle_tenant_does_not_hoard_credit(self):
        """A tenant idle while others drain re-enters at the current
        virtual time — it does not burn accumulated 'credit' to lock out
        the backlogged tenant."""
        q = WfqQueue("q", capacity=16, weights={"busy": 1, "sleepy": 1})

        def scenario():
            for i in range(8):
                yield from q.try_put(item("busy", i))
            for _ in range(8):
                yield from q.get()  # vtime advances to 8*SCALE
            yield from q.try_put(item("sleepy"))
            return q.last_finish["sleepy"]

        finish = drive(scenario)
        assert finish == 8 * SCALE + SCALE  # vtime + one quantum, not SCALE

    def test_unknown_tenant_autoregisters_at_weight_one(self):
        q = WfqQueue("q", capacity=4, weights={"known": 2})

        def scenario():
            assert (yield from q.try_put(item("stranger")))
            got = yield from q.get()
            return got.tenant.name

        assert drive(scenario) == "stranger"
        assert q.weights["stranger"] == 1

    def test_blocking_put_applies_backpressure(self):
        """put() with a full sub-queue parks until get() frees a slot —
        nothing is dropped, rejects stays zero."""
        q = WfqQueue("q", capacity=2, weights={"t": 1})
        landed = []

        def producer():
            for i in range(5):
                assert (yield from q.put(item("t", i)))
                landed.append(i)

        def consumer():
            taken = []
            while len(taken) < 5:
                got = yield from q.get(timeout=msec(200))
                if got is not None:
                    taken.append(got.value)
                yield p.Compute(usec(100))
            return taken

        kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))
        out = {}

        def consume():
            out["taken"] = yield from consumer()

        kernel.fork_root(producer)
        kernel.fork_root(consume)
        kernel.run_for(sec(2))
        assert landed == [0, 1, 2, 3, 4]
        assert out["taken"] == [0, 1, 2, 3, 4]
        assert q.rejects == 0

    def test_get_wakes_the_putter_whose_sub_queue_has_room(self):
        """Putters of every tenant park on one CV.  With ``a`` and ``b``
        both full, ``a``'s putter parks first; a get that frees a slot
        in ``b``'s sub-queue must still reach ``b``'s putter, not only
        wake ``a``'s, which finds no room and waits again."""
        q = WfqQueue("q", capacity=1, weights={"a": 1, "b": 4})
        kernel = Kernel(KernelConfig(switch_cost=0, monitor_overhead=0))
        landed = []

        def putter(tenant):
            assert (yield from q.put(item(tenant, 1)))
            landed.append(tenant)

        def scenario():
            assert (yield from q.try_put(item("a", 0)))
            assert (yield from q.try_put(item("b", 0)))
            yield p.Fork(putter, ("a",), name="put-a", detached=True)
            yield p.Yield()
            yield p.Fork(putter, ("b",), name="put-b", detached=True)
            yield p.Yield()
            got = yield from q.get()
            assert (got.tenant.name, got.value) == ("b", 0)

        kernel.fork_root(scenario)
        kernel.run_for(sec(1))
        assert landed == ["b"]
        assert q.depth_of("a") == 1 and q.depth_of("b") == 1

    def test_get_timeout_returns_none(self):
        q = WfqQueue("q", capacity=2, weights={"t": 1})

        def scenario():
            got = yield from q.get(timeout=msec(60))
            return got

        assert drive(scenario) is None

    def test_prune_removes_matches_across_tenants(self):
        q = WfqQueue("q", capacity=8, weights={"a": 1, "b": 1})

        def scenario():
            for i in range(3):
                yield from q.try_put(item("a", i))
                yield from q.try_put(item("b", i))
            removed = yield from q.prune(lambda it: it.value % 2 == 1)
            return sorted((it.tenant.name, it.value) for it in removed)

        removed = drive(scenario)
        assert removed == [("a", 1), ("b", 1)]
        assert len(q) == 4

    def test_service_order_is_deterministic(self):
        """Same seed, same interleaved producers: identical service
        order both runs — the property the cluster digest rests on."""

        def run_once():
            q = WfqQueue("q", capacity=8, weights={"a": 1, "b": 2})
            order = []
            kernel = Kernel(KernelConfig(seed=3, switch_cost=0,
                                         monitor_overhead=0))

            def producer(tenant, count):
                rng = kernel.rng.fork(f"prod.{tenant}")
                for i in range(count):
                    yield p.Compute(rng.randint(10, 200))
                    yield from q.put(item(tenant, i))

            def consumer():
                while len(order) < 12:
                    got = yield from q.get(timeout=msec(100))
                    if got is not None:
                        order.append((got.tenant.name, got.value))

            kernel.fork_root(producer, args=("a", 6))
            kernel.fork_root(producer, args=("b", 6))
            kernel.fork_root(consumer)
            kernel.run_for(sec(2))
            return order

        first, second = run_once(), run_once()
        assert first == second
        assert len(first) == 12


# ---------------------------------------------------------------------------
# The cluster world
# ---------------------------------------------------------------------------

class TestClusterWorld:
    def test_same_seed_same_digest(self):
        first = run_cluster(scenario="steady", duration=RUN)
        second = run_cluster(scenario="steady", duration=RUN)
        assert first.digest == second.digest
        assert first.completed > 0

    def test_different_seeds_diverge(self):
        first = run_cluster(scenario="steady", duration=RUN)
        second = run_cluster(scenario="steady", seed=1, duration=RUN)
        assert first.digest != second.digest

    def test_steady_cluster_is_healthy(self):
        report = run_cluster(scenario="steady", duration=RUN)
        assert report.balancer["trips"] == 0
        assert all(report.balancer["healthy"])
        assert report.shed_fraction < 0.10
        # every shard did real work — the balancer actually spreads load
        for stats in report.per_shard:
            assert stats["totals"]["completed"] > 0

    def test_routing_policies_differ(self):
        by_policy = {
            policy: run_cluster(scenario="steady", policy=policy,
                                duration=RUN).digest
            for policy in ("hash", "p2c")
        }
        assert by_policy["hash"] != by_policy["p2c"]

    def test_token_bucket_throttles_metered_tenant(self):
        """The skewed mix's ``metered`` tenant offers 3x its configured
        rate limit; the balancer's bucket visibly throttles it."""
        report = run_cluster(scenario="skewed", duration=RUN)
        assert report.balancer["throttled"]["metered"] > 0
        metered = report.merged["tenants"]["metered"]
        # Throttled requests are shed at the balancer, so completions
        # stay at or under the limit (200/s over the run), with slack
        # for the initial burst allowance.
        limit = 200 * (RUN / 1_000_000) + 32
        assert metered["completed"] <= limit

    def test_wfq_outperforms_drop_tail_for_interactive(self):
        """Under the skewed flood the interactive tenant completes at
        least as much and waits no longer with WFQ admission."""
        wfq = run_cluster(scenario="skewed", admission="wfq", duration=RUN)
        drop = run_cluster(scenario="skewed", admission="drop_tail",
                           duration=RUN)
        w = wfq.merged["tenants"]["interactive"]
        d = drop.merged["tenants"]["interactive"]
        assert w["completed"] >= d["completed"]
        assert wfq.tenant_share("bulk") < drop.tenant_share("bulk")

    def test_wedged_shard_trips_breaker_and_reroutes(self):
        """The directed chaos scenario end-to-end: poisoning every
        shard0 worker (and its serializer) trips the health probe,
        queued work is evacuated and re-dispatched, the watchdog stays
        quiet, and the survivors keep completing requests."""
        from repro.analysis.chaos import run_one
        from repro.analysis.faults import FaultPlan
        from repro.analysis.scenarios import SCENARIOS

        scenario = SCENARIOS["cluster-wedged-shard"]
        record = run_one(scenario, FaultPlan(), seed=0)
        assert record.ok, record.failures
        assert record.deadlocks == 0
