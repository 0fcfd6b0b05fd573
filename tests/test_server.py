"""The multi-tenant RPC server world (repro.server).

Covers the latency histogram's integer quantile math, end-to-end
determinism (seed -> digest), admission control under overload, ordered
tenants' FIFO completion, write coalescing through the slack-process
batcher, and the sleeper-driven deadline/retry path.
"""

import json

import pytest

from repro.kernel import KernelConfig, msec, sec, usec
from repro.cluster.world import run_cluster
from repro.server import LatencyHistogram, ServerStats, TenantSpec, run_server
from repro.server.latency import bucket_label
from repro.server.model import DONE
from repro.server.world import build_server_world
from repro.workload.world import run_workload

RUN = sec(1)


# ---------------------------------------------------------------------------
# Latency histogram
# ---------------------------------------------------------------------------

class TestLatencyHistogram:
    def test_bucket_indexing_is_log2(self):
        h = LatencyHistogram()
        for value in (0, 1, 2, 3, 4, 1023, 1024):
            h.record(value)
        assert h.counts[0] == 1          # zero
        assert h.counts[1] == 1          # [1, 2)
        assert h.counts[2] == 2          # [2, 4)
        assert h.counts[3] == 1          # [4, 8)
        assert h.counts[10] == 1         # [512, 1024)
        assert h.counts[11] == 1         # [1024, 2048)
        assert h.total == 7

    def test_percentile_is_bucket_upper_bound_clamped(self):
        h = LatencyHistogram()
        for _ in range(99):
            h.record(100)                # bucket [64, 128) -> upper 127
        h.record(3000)                   # bucket [2048, 4096)
        assert h.percentile(0.50) == 127
        assert h.percentile(0.99) == 127
        # The tail observation caps at the observed max, not 4095.
        assert h.percentile(1.0) == 3000

    def test_percentile_single_observation(self):
        h = LatencyHistogram()
        h.record(500)
        for q in (0.5, 0.95, 0.99, 0.999, 1.0):
            assert h.percentile(q) == 500

    def test_percentile_empty_is_zero(self):
        assert LatencyHistogram().percentile(0.99) == 0

    def test_percentile_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(0.0)
        with pytest.raises(ValueError):
            LatencyHistogram().percentile(1.5)

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().record(-1)

    def test_merge_folds_counts_and_extremes(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        a.record(10)
        b.record(1000)
        b.record(5)
        a.merge(b)
        assert a.total == 3
        assert a.min == 5
        assert a.max == 1000
        assert a.sum == 1015

    def test_digest_depends_only_on_contents(self):
        a, b = LatencyHistogram(), LatencyHistogram()
        for h in (a, b):
            h.record(100)
            h.record(2000)
        assert a.digest() == b.digest()
        b.record(1)
        assert a.digest() != b.digest()

    def test_to_dict_is_json_and_sparse(self):
        h = LatencyHistogram()
        h.record(100)
        d = json.loads(json.dumps(h.to_dict()))
        assert list(d["buckets"]) == ["7"]
        assert d["total"] == 1
        assert {"p50", "p95", "p99", "p999"} <= set(d)

    def test_bucket_labels(self):
        assert bucket_label(0) == "0us"
        assert bucket_label(1) == "1us..1us"
        assert bucket_label(10) == "512us..1.0ms"
        assert bucket_label(11) == "1.0ms..2.0ms"


# ---------------------------------------------------------------------------
# End-to-end world behaviour
# ---------------------------------------------------------------------------

class TestServerWorld:
    def test_same_seed_same_digest(self):
        first = run_server(scenario="steady", seed=3, duration=RUN)
        second = run_server(scenario="steady", seed=3, duration=RUN)
        assert first.digest == second.digest
        assert first.stats == second.stats

    def test_different_seed_different_digest(self):
        first = run_server(scenario="steady", seed=0, duration=RUN)
        second = run_server(scenario="steady", seed=1, duration=RUN)
        assert first.digest != second.digest

    def test_steady_state_meets_slo(self):
        report = run_server(scenario="steady", duration=RUN)
        totals = report.stats["totals"]
        assert totals["completed"] > 500
        assert totals["shed"] == 0
        assert totals["failed"] == 0
        # Every tenant made progress.
        for row in report.stats["tenants"].values():
            assert row["completed"] > 0

    def test_overload_sheds_instead_of_queueing(self):
        report, world, server = run_server(
            scenario="overload", duration=RUN, keep_world=True
        )
        try:
            totals = report.stats["totals"]
            assert totals["shed"] > 0.10 * totals["offered"]
            # Bounded admission: depth never exceeded capacity, either in
            # the sleeper's samples or the queue's own high-water mark.
            assert report.stats["max_depth_sampled"] <= server.admission.capacity
            assert server.admission.max_depth <= server.admission.capacity
            # Shedding happened at admission, and the server still served.
            assert server.admission.rejects > 0
            assert totals["completed"] > 0
        finally:
            world.shutdown()

    def test_policy_and_pool_size_change_the_story(self):
        strict = run_server(scenario="overload", policy="strict", duration=RUN)
        fair = run_server(scenario="overload", policy="fair_share", duration=RUN)
        assert strict.digest != fair.digest

    def test_report_quantiles_and_throughput(self):
        report = run_server(scenario="steady", duration=RUN)
        q = report.quantiles
        assert q["p50"] <= q["p95"] <= q["p99"] <= q["p999"]
        assert report.throughput_per_sec > 0
        d = report.to_dict()
        assert d["digest"] == report.digest
        json.dumps(d)  # JSON-serialisable all the way down

    def test_ordered_tenant_completes_in_fifo_order(self):
        tenant = TenantSpec(
            name="seq", mode="open", rate_per_sec=300.0,
            cost=usec(400), deadline=msec(800), ordered=True, max_retries=0,
        )
        world, server = build_server_world(
            KernelConfig(seed=0), tenants=(tenant,)
        )
        completed = []
        original = server._finish

        def spy(req, verdict):
            if verdict == DONE:
                completed.append(req.rid)
            yield from original(req, verdict)

        server._finish = spy
        world.run_for(RUN)
        world.shutdown()
        assert len(completed) > 100
        sequence = [int(rid.split("-")[1]) for rid in completed]
        assert sequence == sorted(sequence)

    def test_batcher_coalesces_same_key_writes(self):
        tenant = TenantSpec(
            name="w", mode="open", rate_per_sec=600.0, cost=usec(200),
            deadline=msec(900), writes=True, write_keys=3, max_retries=0,
        )
        world, server = build_server_world(
            KernelConfig(seed=0), tenants=(tenant,)
        )
        world.run_for(RUN)
        row = server.stats.per_tenant["w"]
        batcher = server.batcher
        batches = server.stats.batches
        world.shutdown()
        assert row["coalesced"] > 0
        assert batches > 0
        # Merging really dropped deliveries, yet every merged-away write
        # still completed (the caller cannot tell it was coalesced).
        assert batcher.items_in > batcher.items_out
        assert row["completed"] >= row["coalesced"]

    def test_deadline_timeouts_retry_then_fail(self):
        # One slow worker, aggressive load, tight deadline: requests
        # expire in the queue, retry with backoff, and finally fail.
        tenant = TenantSpec(
            name="hot", mode="open", rate_per_sec=800.0, cost=usec(3000),
            deadline=msec(50), max_retries=1, backoff=msec(20),
        )
        world, server = build_server_world(
            KernelConfig(seed=0), tenants=(tenant,), workers=1,
            admission_capacity=32,
        )
        world.run_for(RUN)
        row = server.stats.per_tenant["hot"]
        world.shutdown()
        assert row["timeouts"] > 0
        assert row["retries"] > 0
        assert row["failed"] > 0
        # Retries are bounded: every failure burned exactly the budget.
        assert row["timeouts"] <= row["retries"] + row["failed"] + 1

    def test_closed_loop_clients_make_progress(self):
        tenant = TenantSpec(
            name="users", mode="closed", clients=4, think_time=msec(50),
            cost=usec(400), deadline=msec(400),
        )
        world, server = build_server_world(
            KernelConfig(seed=0), tenants=(tenant,)
        )
        world.run_for(RUN)
        row = server.stats.per_tenant["users"]
        world.shutdown()
        assert row["offered"] > 20
        assert row["completed"] > 20
        assert row["give_ups"] == 0

    def test_co_aware_accounting_raises_recorded_p99(self):
        """Coordinated-omission regression: a stalled server forces the
        closed-loop client into shed/backoff/resubmit cycles.  CO-naive
        accounting restarts the latency clock at each resubmit and
        reports a flattering tail; CO-aware accounting keeps the
        original intended send time, so the recorded p99 rises to tell
        the truth about the stall."""

        def mix(co_aware):
            hog = TenantSpec(
                name="hog", mode="open", rate_per_sec=600.0, cost=usec(8000),
                deadline=msec(400), max_retries=0,
            )
            victim = TenantSpec(
                name="victim", mode="closed", clients=4,
                think_time=msec(5), cost=usec(1000), deadline=msec(80),
                max_retries=0, backoff=msec(30), co_aware=co_aware,
            )
            return (hog, victim)

        results = {}
        for co_aware in (False, True):
            world, server = build_server_world(
                KernelConfig(seed=0), tenants=mix(co_aware), workers=2,
                admission_capacity=8,
            )
            world.run_for(RUN)
            row = dict(server.stats.per_tenant["victim"])
            latency = server.stats.tenant_latency["victim"]
            results[co_aware] = (row, latency.percentile(0.99))
            world.shutdown()

        naive_row, naive_p99 = results[False]
        aware_row, aware_p99 = results[True]
        # Both runs really exercised the retry path.
        assert naive_row["client_retries"] > 0
        assert aware_row["client_retries"] > 0
        # The accounting is the only difference — and the tail moves.
        assert aware_p99 > naive_p99, (
            f"CO-aware p99 {aware_p99} should exceed naive {naive_p99}"
        )

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError):
            run_server(scenario="nope", duration=msec(100))

    def test_watchdog_stays_quiet(self):
        world, _server = build_server_world(
            KernelConfig(seed=0, watchdog=True), scenario="steady"
        )
        world.run_for(RUN)
        watchdog = world.kernel.watchdog
        deadlocks = list(watchdog.deadlocks)
        starvation = list(watchdog.starvation)
        world.shutdown()
        assert deadlocks == []
        assert starvation == []


class TestServerStatsTotals:
    def test_running_totals_match_the_tenant_rows(self):
        # ``total`` reads per-kind sums that ``bump`` keeps as it writes
        # rows; they must equal a fresh sum over the rows on the
        # balancer, every shard and replica, and the cache tier.  Some
        # kinds (``give_ups``) stay zero in those runs, so a directly
        # bumped ``ServerStats`` covers every kind too.
        direct = ServerStats()
        for amount, kind in enumerate(ServerStats.KINDS, start=1):
            for tenant in ("a", "b"):
                direct.bump(tenant, kind, amount)
        _, world, balancer = run_cluster(
            replicas=True, duration=msec(500), keep_world=True
        )
        stats = [direct, balancer.stats]
        stats += [shard.stats for shard in balancer.shards]
        stats += [link.replica.stats for link in balancer.links]
        world.shutdown()
        _, cached = run_workload(
            scenario="cache-stampede", duration=msec(500), keep_world=True
        )
        stats += [cached.cache.stats, cached.balancer.stats]
        stats += [shard.stats for shard in cached.balancer.shards]
        cached.world.shutdown()
        for server_stats in stats:
            rows = server_stats.per_tenant.values()
            for kind in ServerStats.KINDS:
                assert server_stats.total(kind) == sum(row[kind] for row in rows)
        assert cached.cache.stats.total("completed") > 0
        assert balancer.stats.total("offered") > 0
        assert balancer.shards[0].stats.total("completed") > 0


# ---------------------------------------------------------------------------
# Report rendering
# ---------------------------------------------------------------------------

class TestServerReportRendering:
    def test_format_server_report(self):
        from repro.analysis.report import format_server_report

        report = run_server(scenario="overload", duration=RUN)
        text = format_server_report(report.to_dict())
        assert "scenario=overload" in text
        assert "Per-tenant outcomes" in text
        assert "End-to-end latency" in text
        assert "p999" in text or "p99" in text
        assert report.digest in text
        for tenant in ("api", "ordered", "writes", "interactive"):
            assert tenant in text

    def test_format_latency_histogram_empty(self):
        from repro.analysis.report import format_latency_histogram

        text = format_latency_histogram("t", {"buckets": {}})
        assert "no observations" in text
