"""Replication and failover (repro.cluster.replication + balancer).

Covers the failover PR end to end:

* the pre-fix loss, pinned: a wedged shard with no replica strands its
  acknowledged in-flight work (now at least *counted* in
  ``lost_inflight``), while the replicated cluster promotes and loses
  nothing;
* reroutes no longer charge the tenant's retry budget (``renew`` vs
  ``rearm``) and are accounted separately from genuine retries;
* breaker recovery needs a sustained clean-strike window, not one
  dripped completion (the flapping regression);
* the op log ships and applies deterministically;
* the directed kill-primary and partition-balancer chaos scenarios
  pass their post-checks (zero lost acknowledged requests), and a
  promotion that drops an un-acked replay fails the kill-primary check
  by rid (a retired primary holds nothing);
* the custody property: under sampled chaos plans — random kills
  included — every minted request is either terminal (DONE / SHED /
  FAILED) or still held by some component.  Nothing vanishes, and no
  frontend's custody keeps a request that already has its verdict.
"""

from repro.analysis.faults import FaultPlan
from repro.cluster.balancer import LoadBalancer
from repro.cluster.replication import lost_requests
from repro.cluster.world import build_cluster_world
from repro.kernel import KernelConfig, msec, sec, usec
from repro.server.model import DONE, FAILED, PENDING, SHED, TenantSpec

RUN = msec(600)

#: The wedge tests need the full second: the steady mix's late FAILED
#: outcomes keep advancing the progress counter, so the breaker trips
#: only after they drain.
WEDGE_RUN = sec(1)

#: Observed health-probe cadence: the sleeper pauses 2 quanta, but
#: timeouts round up to quantum boundaries, so ticks land every 3rd
#: quantum (150ms at the default 50ms quantum).
PROBE = 3 * msec(50)


def _poison_shard0(world, balancer, *, ordered: bool = True) -> None:
    """Wedge shard 0 at msec(5): every worker plus the serializer.

    ``ordered=False`` for mixes without an ordered tenant — the router
    only has serial queues for tenants that registered as ordered.
    """
    shard0 = balancer.shards[0]
    poison = TenantSpec(
        name="poison", mode="open", cost=sec(30), cost_jitter=0.0,
        deadline=sec(10), max_retries=0,
    )
    ordered_poison = TenantSpec(
        name="ordered", mode="open", cost=sec(30), cost_jitter=0.0,
        deadline=sec(10), max_retries=0, ordered=True,
    )

    def inject(k):
        for _ in range(shard0.workers):
            shard0.net.post(shard0.make_request(poison, k.now))
        if ordered:
            shard0.net.post(shard0.make_request(ordered_poison, k.now))

    world.kernel.post_at(msec(5), inject)


def _track_minted(balancer) -> list:
    minted: list = []
    original = balancer.factory.make

    def make(*args, **kwargs):
        req = original(*args, **kwargs)
        minted.append(req)
        return req

    balancer.factory.make = make
    return minted


def _settled_losses(world, balancer, minted) -> list:
    lost = lost_requests(balancer, minted)
    for _ in range(3):
        if not lost:
            break
        world.kernel.run_for(msec(40), raise_on_deadlock=False)
        lost = lost_requests(balancer, minted)
    return lost


class TestEvacuationLoss:
    def test_unreplicated_wedge_strands_inflight_work(self):
        """The pre-fix behaviour, pinned: without a replica, tripping a
        wedged shard evacuates only what is still queued — the
        acknowledged in-flight remainder is stranded, and the new
        ``lost_inflight`` counter says exactly how much."""
        world, balancer = build_cluster_world(
            KernelConfig(seed=0, ncpus=2), scenario="steady"
        )
        _poison_shard0(world, balancer)
        world.run_for(WEDGE_RUN)
        try:
            assert balancer.trips >= 1
            assert balancer.promotions == 0
            assert sum(balancer.lost_inflight) > 0
        finally:
            world.shutdown()

    def test_replicated_wedge_promotes_and_loses_nothing(self):
        """With a replica the same wedge promotes instead: in-flight
        work is replayed, nothing is stranded, nothing is counted lost."""
        world, balancer = build_cluster_world(
            KernelConfig(seed=0, ncpus=4), scenario="steady",
            replicas=True, standby=False,
        )
        _poison_shard0(world, balancer)
        minted = _track_minted(balancer)
        world.run_for(WEDGE_RUN)
        try:
            assert balancer.trips >= 1
            assert balancer.promotions >= 1
            assert balancer.replayed >= 1
            assert sum(balancer.lost_inflight) == 0
            assert _settled_losses(world, balancer, minted) == []
        finally:
            world.shutdown()


class TestRerouteAccounting:
    def test_renew_does_not_charge_the_retry_budget(self):
        """``renew`` (reroutes, replays) refreshes the deadline without
        touching ``attempt``; ``rearm`` (real retries) charges it."""
        tenant = TenantSpec(name="t", deadline=msec(100), max_retries=1)
        world, balancer = build_cluster_world(
            KernelConfig(seed=0, ncpus=2), tenants=(tenant,)
        )
        try:
            req = balancer.make_request(tenant, now=0)
            assert req.attempt == 0 and req.expires_at == msec(100)
            req.renew(msec(50))
            assert req.attempt == 0
            assert req.expires_at == msec(50) + msec(100)
            assert req.status == PENDING
            req.rearm(msec(70))
            assert req.attempt == 1
            assert req.expires_at == msec(70) + msec(100)
        finally:
            world.shutdown()

    def test_reroutes_do_not_consume_retry_budget(self):
        """Regression for the double-charge: a rerouted request that
        never actually timed out keeps ``attempt == 0``, and reroutes
        land in the ``rerouted`` stat, not ``retries``.

        The tenant's deadline is far past the horizon, so no server-side
        expiry ever rearms anything — the *only* thing that could bump
        ``attempt`` is the old reroute-as-rearm bug."""
        patient = TenantSpec(
            name="patient", mode="open", rate_per_sec=600.0,
            cost=usec(500), cost_jitter=0.0, deadline=sec(5),
            max_retries=0,
        )
        world, balancer = build_cluster_world(
            KernelConfig(seed=0, ncpus=2), tenants=(patient,)
        )
        _poison_shard0(world, balancer, ordered=False)
        minted = _track_minted(balancer)
        world.run_for(WEDGE_RUN)
        try:
            assert balancer.trips >= 1
            rerouted = [r for r in minted if r.reroutes >= 1]
            assert rerouted, "the wedge should have rerouted something"
            # Pre-fix, _reroute_proc rearm()ed: attempt tracked reroutes
            # and no rerouted request could still be on attempt 0.
            assert all(r.attempt == 0 for r in rerouted)
            assert balancer.stats.total("rerouted") == balancer.reroutes
            assert balancer.stats.total("rerouted") > 0
            assert balancer.stats.total("retries") == 0
        finally:
            world.shutdown()


class TestCleanStrikeRecovery:
    def test_single_completion_does_not_reheal(self):
        """The flapping regression: one dripped completion must not
        close the breaker — recovery takes RECOVERY_CLEAN_TICKS
        *consecutive* advancing probes, and a stall restarts the window.

        Traffic-free mix, so the only progress is what the test bumps;
        the balancer's own probe (every PROBE) is the driver.
        """
        from repro.cluster.balancer import RECOVERY_CLEAN_TICKS

        idle = TenantSpec(name="idle", mode="closed", clients=0)
        world, balancer = build_cluster_world(
            KernelConfig(seed=0, ncpus=2), tenants=(idle,)
        )
        try:
            shard0 = balancer.shards[0]
            # Land mid-interval so each step below spans one probe tick.
            world.run_for(PROBE // 2)
            balancer.healthy[0] = False
            balancer._last_done[0] = balancer.shard_done(0)
            balancer._clean[0] = 0

            def drip():
                shard0.stats.bump("idle", "completed")

            drip()
            world.run_for(PROBE)  # one advancing probe
            assert balancer.healthy[0] is False  # pre-fix: healed here
            assert balancer._clean[0] == 1

            drip()
            world.run_for(PROBE)
            assert balancer.healthy[0] is False
            assert balancer._clean[0] == 2

            world.run_for(PROBE)  # stalled probe: the window restarts
            assert balancer.healthy[0] is False
            assert balancer._clean[0] == 0
            assert balancer.recoveries == 0

            for _ in range(RECOVERY_CLEAN_TICKS):
                drip()
                world.run_for(PROBE)
            assert balancer.healthy[0] is True
            assert balancer.recoveries == 1
        finally:
            world.shutdown()


class TestOpLog:
    def test_ship_apply_and_ack(self):
        """Records ship with a fixed delay, the applier folds them, and
        completions ack: terminal rids leave ``pending`` for ``acked``."""
        light = TenantSpec(
            name="light", mode="open", rate_per_sec=200.0,
            cost=usec(300), cost_jitter=0.0,
        )
        world, balancer = build_cluster_world(
            KernelConfig(seed=0, ncpus=2), shards=1, tenants=(light,),
            replicas=True, standby=False,
        )
        world.run_for(RUN)
        try:
            (link,) = balancer.links
            assert link.shipped > 0
            assert 0 < link.applied <= link.shipped
            completed = balancer.shards[0].stats.total("completed")
            assert completed > 0
            assert len(link.acked) > 0
            # Everything acked is terminal; nothing acked is pending.
            assert all(rid not in link.pending for rid in link.acked)
            done = [r for r in link.log if r.kind == "complete"]
            assert done and link.is_acked(done[0].rid)
        finally:
            world.shutdown()


class TestDirectedFailover:
    def test_kill_primary_zero_lost(self):
        """The tentpole scenario: kill a primary mid-batch; promotion
        replays the acknowledged in-flight work and the custody audit
        finds nothing lost."""
        from repro.analysis.chaos import run_one
        from repro.analysis.scenarios import SCENARIOS

        scenario = SCENARIOS["cluster-kill-primary"]
        record = run_one(scenario, FaultPlan(), seed=0)
        assert record.ok, record.failures
        assert record.deadlocks == 0

    def test_partition_balancer_standby_takes_over(self):
        """Kill the balancer: the lease lapses, the standby seizes it,
        rebuilds routing state, and the cluster keeps completing."""
        from repro.analysis.chaos import run_one
        from repro.analysis.scenarios import SCENARIOS

        scenario = SCENARIOS["cluster-partition-balancer"]
        record = run_one(scenario, FaultPlan(), seed=0)
        assert record.ok, record.failures
        assert record.deadlocks == 0


    def test_dropped_replay_is_named(self, monkeypatch):
        """A promotion that skips one un-acked request must fail the
        custody audit by that rid.  The dead primary still lists the
        request in its queues, so the audit must not count what a
        retired primary holds."""
        from repro.analysis.scenarios import SCENARIOS
        from repro.cluster.replication import ReplicationLink

        dropped = []
        is_acked = ReplicationLink.is_acked

        def acks_the_first_pending(link, rid):
            if is_acked(link, rid):
                return True
            req = link.pending.get(rid)
            if dropped or req is None or req.status != PENDING:
                return False
            dropped.append(rid)
            return True

        monkeypatch.setattr(ReplicationLink, "is_acked", acks_the_first_pending)
        scenario = SCENARIOS["cluster-kill-primary"]
        kernel, shutdown = scenario.build(KernelConfig(seed=0))
        try:
            kernel.run_for(scenario.horizon)
            failures = scenario.check(kernel)
        finally:
            shutdown()
        assert len(dropped) == 1
        assert failures == [
            f"kill-primary: 1 acknowledged requests vanished ({dropped[0]})"
        ]


class TestCustodyProperty:
    def test_custody_releases_every_verdict(self, monkeypatch):
        """No frontend's custody lists a request that already has its
        verdict.  In the wedged-shard run the demoted primary's sweeper
        keeps retrying requests that promotion replayed elsewhere; a
        retry releases custody once it has re-queued the request."""
        from repro.analysis.scenarios import SCENARIOS

        built = []
        start = LoadBalancer.start

        def record_start(balancer):
            built.append(balancer)
            start(balancer)

        monkeypatch.setattr(LoadBalancer, "start", record_start)
        scenario = SCENARIOS["cluster-wedged-shard"]
        kernel, shutdown = scenario.build(KernelConfig(seed=0))
        try:
            kernel.run_for(scenario.horizon)
            (balancer,) = built
            assert balancer.promotions == 1
            frontends = [balancer, *balancer.shards, *balancer.retired]
            held = [
                req
                for frontend in frontends
                for req in frontend.held.values()
            ]
            assert held, "the wedge should leave requests in custody"
            assert [r.rid for r in held if r.status != PENDING] == []
        finally:
            shutdown()

    def test_no_request_vanishes_under_chaos(self):
        """The property behind every other assertion here: under
        sampled fault plans (random kills included), every request the
        balancer minted is either terminal — DONE, SHED, FAILED — or
        still held by some queue, ledger, worker, or one-shot.  No
        fourth state, no silent disappearance."""
        plans = [
            FaultPlan(kill_thread_prob=0.01, timer_jitter_prob=0.3,
                      timer_jitter_max=msec(20)),
            FaultPlan(drop_notify_prob=0.05, spurious_wakeup_prob=0.05,
                      kill_thread_prob=0.005),
        ]
        for seed, plan in enumerate(plans):
            world, balancer = build_cluster_world(
                KernelConfig(seed=seed, ncpus=4, fault_plan=plan),
                scenario="steady", replicas=True, standby=False,
            )
            minted = _track_minted(balancer)
            world.run_for(RUN, raise_on_deadlock=False)
            try:
                lost = _settled_losses(world, balancer, minted)
                assert lost == [], (
                    f"seed {seed}: {[r.rid for r in lost]} vanished"
                )
                terminal = [r for r in minted if r.status != PENDING]
                assert terminal, "the run should have resolved requests"
                assert all(
                    r.status in (DONE, SHED, FAILED) for r in terminal
                )
            finally:
                world.shutdown()
