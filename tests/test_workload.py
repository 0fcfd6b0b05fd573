"""Workload-compiler tests: arrival determinism, superposition, live
parity, shapes, retry storms, and report determinism.

The compiler's core claim is that one aggregate event chain per client
class is *exactly* the superposition of its million independent Poisson
clients — these tests pin the determinism half directly (replay equals
live, same seed same schedule) and check the statistical half on the
aggregate counts.
"""

import pytest

from repro.kernel.simtime import msec, sec, usec
from repro.server.model import TenantSpec
from repro.workload import (
    ClientClass,
    Constant,
    Diurnal,
    FlashCrowd,
    arrival_times,
    run_workload,
    workload_spec,
)
from repro.workload.scenarios import WORKLOAD_SCENARIOS


def _class(name="web", clients=10_000, rate=0.01, **kwargs) -> ClientClass:
    tenant = kwargs.pop("tenant", None) or TenantSpec(
        name=name, mode="open", cost=usec(500), deadline=msec(400),
        slo=msec(100),
    )
    return ClientClass(
        tenant=tenant, clients=clients, rate_per_client=rate, **kwargs
    )


# -- load shapes -------------------------------------------------------------

def test_constant_shape_is_flat():
    shape = Constant(level=0.7)
    assert shape.value(0) == 0.7
    assert shape.value(sec(10)) == 0.7
    assert shape.peak() == 0.7


def test_diurnal_shape_cycles_between_low_and_high():
    shape = Diurnal(period=msec(100), low=0.4, high=1.0)
    values = [shape.value(t) for t in range(0, msec(200), msec(5))]
    assert min(values) >= 0.4
    assert max(values) <= 1.0
    assert shape.value(0) == 0.4
    # Period boundary: the curve repeats exactly.
    assert shape.value(msec(37)) == shape.value(msec(137))
    assert shape.peak() == 1.0


def test_flash_crowd_spikes_then_returns_to_base():
    shape = FlashCrowd(spike=3.0, start=msec(100), ramp=msec(10),
                       hold=msec(50))
    assert shape.value(0) == 1.0
    assert shape.value(msec(120)) == 3.0  # mid-hold
    assert shape.value(msec(300)) == 1.0  # long after
    assert shape.peak() == 3.0


# -- arrival_times: determinism and statistics -------------------------------

def test_arrival_schedule_is_deterministic_per_seed():
    cls = _class()
    first = arrival_times(cls, 7, sec(1))
    second = arrival_times(cls, 7, sec(1))
    assert first == second
    assert first == sorted(first)


def test_arrival_schedule_differs_across_seeds():
    cls = _class()
    assert arrival_times(cls, 0, sec(1)) != arrival_times(cls, 1, sec(1))


def test_arrival_rate_matches_aggregate():
    """10k clients x 0.01 req/s = 100 req/s; a 4 s window should land
    within ~5 sigma of 400 arrivals."""
    cls = _class(clients=10_000, rate=0.01)
    n = len(arrival_times(cls, 0, sec(4)))
    assert 300 <= n <= 500, n


def test_superposition_matches_split_populations():
    """One 30k-client class vs three 10k-client classes of the same
    tenant: distinct Poisson streams, but the aggregate counts must
    agree statistically (same total rate, ~3 sigma window)."""
    whole = _class(name="web", clients=30_000, rate=0.01)
    n_whole = len(arrival_times(whole, 0, sec(2)))
    n_split = 0
    for i in range(3):
        tenant = TenantSpec(
            name=f"web{i}", mode="open", cost=usec(500),
            deadline=msec(400), slo=msec(100),
        )
        part = _class(tenant=tenant, clients=10_000, rate=0.01)
        n_split += len(arrival_times(part, 0, sec(2)))
    expected = 30_000 * 0.01 * 2  # 600
    sigma = expected ** 0.5
    assert abs(n_whole - expected) < 5 * sigma
    assert abs(n_split - expected) < 5 * sigma


def test_thinning_respects_shape():
    """Cutting the rate in half via the shape halves the accepted count
    (same candidate stream, thinned)."""
    full = _class(clients=20_000, rate=0.01, shape=Constant(level=1.0))
    half = _class(clients=20_000, rate=0.01, shape=Constant(level=0.5))
    n_full = len(arrival_times(full, 0, sec(2)))
    n_half = len(arrival_times(half, 0, sec(2)))
    assert 0.35 < n_half / n_full < 0.65


def test_zero_rate_class_never_arrives():
    cls = _class(clients=0)
    assert arrival_times(cls, 0, sec(10)) == []


# -- live parity: the replay is what the kernel runs -------------------------

def test_live_offered_equals_replayed_schedule():
    """For a class with no stragglers and no resubmits, the live world's
    per-tenant ``offered`` equals the kernel-free replay exactly —
    the determinism contract between compiler and kernel."""
    from repro.workload.scenarios import WorkloadSpec

    cls = _class(name="solo", clients=50_000, rate=0.01)
    spec = WorkloadSpec(name="solo", classes=(cls,))
    report = run_workload(spec=spec, duration=sec(1))
    expected = len(arrival_times(cls, 0, sec(1), frontend_name="lb"))
    assert report.tenants["solo"]["offered"] == expected
    assert expected > 0


def test_straggler_class_offers_at_most_schedule():
    """Stragglers delay mints past the horizon but never invent them:
    live offered <= replayed accepted schedule."""
    from repro.workload.scenarios import WorkloadSpec

    cls = _class(
        name="slow", clients=50_000, rate=0.01,
        straggler_prob=0.5, straggler_stall=msec(100),
    )
    spec = WorkloadSpec(name="slow", classes=(cls,))
    report = run_workload(spec=spec, duration=sec(1))
    schedule = arrival_times(cls, 0, sec(1), frontend_name="lb")
    assert 0 < report.tenants["slow"]["offered"] <= len(schedule)


# -- scenarios and reports ---------------------------------------------------

def test_every_scenario_spec_builds():
    for name in WORKLOAD_SCENARIOS:
        spec = workload_spec(name)
        assert spec.name == name
        assert spec.total_clients > 0
        assert spec.tenants


def test_unknown_scenario_raises():
    with pytest.raises(ValueError):
        workload_spec("nope")


def test_workload_report_is_deterministic():
    first = run_workload(scenario="diurnal", duration=msec(400))
    second = run_workload(scenario="diurnal", duration=msec(400))
    assert first.digest == second.digest
    assert first.tenants == second.tenants


def test_workload_report_shape():
    report = run_workload(scenario="diurnal", duration=msec(400))
    assert set(report.tenants) == {"web", "api", "mobile"}
    for row in report.tenants.values():
        assert 0.0 <= row["slo_attainment"] <= 1.0
        assert row["slo_attainment"] <= row["latency_attainment"]
    assert report.totals["offered"] >= report.completed
    assert report.total_clients == 350_000
    d = report.to_dict()
    assert d["digest"] == report.digest
    assert d["cache"] is None


def test_retry_storm_resubmits_and_keeps_books():
    """The storm scenario really storms: sheds are resubmitted, the
    resubmissions show up as client_retries and extra offered, and the
    sink's give-ups are charged to the tenant."""
    report = run_workload(scenario="retry-storm", duration=msec(600))
    flood = report.tenants["flood"]
    sink = report.sinks["flood"]
    assert sink["resubmitted"] > 0
    # Backoffs landing past the horizon never mint, so the minted
    # retries lag the scheduled resubmissions but never exceed them.
    assert 0 < flood["client_retries"] <= sink["resubmitted"]
    assert flood["give_ups"] == sink["give_ups"]
    assert flood["shed"] > 0
    # Offered = accepted schedule + minted resubmissions, exactly.
    cls = next(c for c in workload_spec("retry-storm").classes
               if c.name == "flood")
    schedule = len(arrival_times(cls, 0, msec(600), frontend_name="lb"))
    assert flood["offered"] == schedule + flood["client_retries"]


def test_million_client_flash_crowd_runs():
    """1.22M open-loop clients: the compiler installs two event chains,
    not a million threads, so a short run completes quickly."""
    report = run_workload(scenario="flash-crowd", duration=msec(300))
    assert report.total_clients == 1_220_000
    assert report.completed > 0
