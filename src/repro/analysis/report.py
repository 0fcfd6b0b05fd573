"""Report formatting: paper-vs-measured tables for the bench harness.

Every benchmark prints its table through these helpers, so the
regenerated rows look the same everywhere: a column of published values,
a column of measured values, and a ratio.
"""

from __future__ import annotations

from typing import Any, Sequence


def format_table(
    title: str,
    headers: Sequence[str],
    rows: Sequence[Sequence[Any]],
) -> str:
    """A plain-text table with aligned columns."""
    widths = [len(str(h)) for h in headers]
    rendered_rows = []
    for row in rows:
        rendered = [_fmt(cell) for cell in row]
        rendered_rows.append(rendered)
        for index, cell in enumerate(rendered):
            widths[index] = max(widths[index], len(cell))
    lines = [title]
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for rendered in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(rendered, widths)))
    return "\n".join(lines)


def _fmt(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 100:
            return f"{cell:.0f}"
        if abs(cell) >= 1:
            return f"{cell:.1f}"
        return f"{cell:.3f}"
    return str(cell)


def format_latency_histogram(title: str, latency: dict) -> str:
    """ASCII rendering of a :class:`~repro.server.latency.LatencyHistogram`
    in its ``to_dict()`` form: one bar (at most 40 characters) per
    non-empty log2 bucket, plus the quantile footer every SLO discussion
    starts from."""
    from repro.server.latency import QUANTILES, bucket_label

    buckets = {int(k): v for k, v in latency.get("buckets", {}).items()}
    lines = [title]
    if not buckets:
        lines.append("  (no observations)")
        return "\n".join(lines)
    peak = max(buckets.values())
    label_width = max(len(bucket_label(i)) for i in buckets)
    for index in sorted(buckets):
        count = buckets[index]
        bar = "#" * max(1, round(40 * count / peak))
        lines.append(
            f"  {bucket_label(index):>{label_width}}  {count:>7}  {bar}"
        )
    quantiles = "  ".join(
        f"{name}={latency[name] / 1000:.1f}ms" for name, _ in QUANTILES
    )
    lines.append(
        f"  n={latency['total']}  mean="
        f"{(latency['sum'] / latency['total']) / 1000:.1f}ms  {quantiles}"
    )
    return "\n".join(lines)


def format_server_counters(stats: dict) -> str:
    """Per-tenant shed/timeout/retry counter table for a server run's
    ``ServerStats.to_dict()``; the totals row closes the table."""
    headers = ["tenant", "offered", "admitted", "shed", "completed",
               "coalesced", "timeouts", "retries", "failed", "give_ups",
               "p50", "p99"]
    rows = []
    for name, row in stats["tenants"].items():
        latency = row.get("latency")
        rows.append([
            name, row["offered"], row["admitted"], row["shed"],
            row["completed"], row["coalesced"], row["timeouts"],
            row["retries"], row["failed"], row["give_ups"],
            f"{latency['p50'] / 1000:.1f}ms" if latency else "-",
            f"{latency['p99'] / 1000:.1f}ms" if latency else "-",
        ])
    totals = stats["totals"]
    rows.append([
        "TOTAL", totals["offered"], totals["admitted"], totals["shed"],
        totals["completed"], totals["coalesced"], totals["timeouts"],
        totals["retries"], totals["failed"], totals["give_ups"],
        f"{stats['latency']['p50'] / 1000:.1f}ms",
        f"{stats['latency']['p99'] / 1000:.1f}ms",
    ])
    return format_table("Per-tenant outcomes", headers, rows)


def format_server_report(report: dict) -> str:
    """The full ``serve`` output for a ``ServerReport.to_dict()``."""
    stats = report["stats"]
    seconds = report["duration_us"] / 1_000_000
    depth = stats.get("max_depth_sampled", 0)
    lines = [
        f"server scenario={report['scenario']} seed={report['seed']} "
        f"policy={report['policy']} workers={report['workers']} "
        f"admission={report['admission_capacity']} run={seconds:g}s",
        f"throughput {report['throughput_per_sec']:.1f} req/s, "
        f"shed {100 * report['shed_fraction']:.1f}%, "
        f"peak sampled queue depth {depth}, "
        f"{stats['batches']} write batches",
        "",
        format_server_counters(stats),
        "",
        format_latency_histogram("End-to-end latency", stats["latency"]),
        "",
        f"stats digest: {report['digest']}",
    ]
    return "\n".join(lines)


def format_cluster_report(report: dict) -> str:
    """The full ``cluster`` output for a ``ClusterReport.to_dict()``."""
    merged = report["merged"]
    balancer = report["balancer"]
    seconds = report["duration_us"] / 1_000_000
    health = (
        f"trips {balancer['trips']}, recoveries {balancer['recoveries']}, "
        f"reroutes {balancer['reroutes']}, "
        f"lost-inflight {sum(balancer.get('lost_inflight', ()))}"
    )
    promotions = balancer.get("promotions", 0)
    if promotions:
        health += (
            f", promotions {promotions} "
            f"(replayed {balancer.get('replayed', 0)}, "
            f"quarantined {balancer.get('quarantined', 0)})"
        )
    lease = balancer.get("lease")
    if lease is not None and lease.get("takeovers"):
        health += f", lease takeovers {lease['takeovers']}"
    shard_rows = []
    for sid, stats in enumerate(report["per_shard"]):
        totals = stats["totals"]
        latency = stats["latency"]
        shard_rows.append([
            f"shard{sid}",
            "up" if balancer["healthy"][sid] else "DOWN",
            balancer["dispatched"][sid],
            totals["completed"],
            totals["shed"],
            totals["timeouts"],
            balancer["rerouted_away"][sid],
            f"{latency['p50'] / 1000:.1f}ms" if latency["total"] else "-",
            f"{latency['p99'] / 1000:.1f}ms" if latency["total"] else "-",
        ])
    lines = [
        f"cluster scenario={report['scenario']} seed={report['seed']} "
        f"shards={report['shards']}x{report['workers_per_shard']}w "
        f"policy={report['policy']} admission={report['admission']} "
        f"run={seconds:g}s",
        f"throughput {report['throughput_per_sec']:.1f} req/s, "
        f"shed {100 * report['shed_fraction']:.1f}%, "
        f"dispatch window {balancer['window']}/shard, {health}",
        "",
        format_table(
            "Per-shard outcomes",
            ["shard", "health", "dispatched", "completed", "shed",
             "timeouts", "rerouted", "p50", "p99"],
            shard_rows,
        ),
        "",
        format_server_counters(merged),
        "",
        format_latency_histogram("Cluster end-to-end latency",
                                 merged["latency"]),
        "",
        f"cluster digest: {report['digest']}",
    ]
    throttled = {k: v for k, v in balancer.get("throttled", {}).items() if v}
    if throttled:
        noted = ", ".join(f"{k}={v}" for k, v in sorted(throttled.items()))
        lines.insert(2, f"token-bucket throttled: {noted}")
    return "\n".join(lines)


def format_workload_report(report: dict) -> str:
    """The full ``workload`` output for a ``WorkloadReport.to_dict()``."""
    seconds = report["duration_us"] / 1_000_000
    totals = report["totals"]
    headline = (
        f"workload scenario={report['scenario']} seed={report['seed']} "
        f"clients={report['total_clients']:,} run={seconds:g}s"
    )
    if report["single_flight"] is not None:
        headline += (
            f" single-flight={'on' if report['single_flight'] else 'off'}"
        )
    tenant_rows = []
    for name, row in report["tenants"].items():
        latency = row.get("latency")
        tenant_rows.append([
            name, row["offered"], row["completed"], row["shed"],
            row["give_ups"], row["client_retries"],
            f"{latency['p99'] / 1000:.1f}ms" if latency else "-",
            f"{row['slo_us'] / 1000:g}ms",
            f"{100 * row['latency_attainment']:.1f}%",
            f"{100 * row['slo_attainment']:.1f}%",
        ])
    lines = [
        headline,
        f"offered {totals['offered']}, completed {totals['completed']}, "
        f"shed {totals['shed']}, give-ups {totals['give_ups']}, "
        f"client retries {totals['client_retries']}",
        "",
        format_table(
            "Per-tenant SLO attainment (client-facing)",
            ["tenant", "offered", "completed", "shed", "give_ups",
             "retries", "p99", "slo", "latency-att", "slo-att"],
            tenant_rows,
        ),
    ]
    cache = report.get("cache")
    if cache:
        lines += [
            "",
            f"cache: hit rate {100 * cache['hit_rate']:.1f}% "
            f"({cache['hits']} hits / {cache['misses']} misses), "
            f"fetches {cache['fetches']} over {cache['fetch_windows']} "
            f"windows -> amplification {cache['amplification']:.2f}x, "
            f"max in-flight/key {cache['max_inflight_per_key']}",
            f"cache: fills {cache['fills']}, failed {cache['failed_fills']}, "
            f"stale (dead-on-arrival) {cache['stale_fills']}, "
            f"coalesced waits {cache['coalesced_waits']}, "
            f"invalidated {cache['invalidated']}, "
            f"ttl-expired {cache['expired_entries']}",
        ]
    storms = {
        name: sink for name, sink in report.get("sinks", {}).items()
        if sink["resubmitted"]
    }
    if storms:
        noted = ", ".join(
            f"{name} resubmitted {sink['resubmitted']} "
            f"(gave up {sink['give_ups']})"
            for name, sink in sorted(storms.items())
        )
        lines += ["", f"retry storms: {noted}"]
    cluster = report["cluster"]
    lines += [
        "",
        f"backend cluster: {cluster['throughput_per_sec']:.1f} req/s, "
        f"shed {100 * cluster['shed_fraction']:.1f}%, "
        f"digest {cluster['digest']}",
        f"workload digest: {report['digest']}",
    ]
    return "\n".join(lines)


def ratio(measured: float, paper: float) -> str:
    """measured/paper as a compact ratio string ("-" when undefined)."""
    if paper == 0:
        return "-" if measured == 0 else "inf"
    return f"{measured / paper:.2f}x"
