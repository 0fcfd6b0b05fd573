"""F5: thread-lifetime classes (Section 3 text).

"Transient threads are by far the most numerous resulting in an average
lifetime for non-eternal threads that is well under 1 second."
"""

from repro.analysis.lifetimes import analyse, is_well_under_a_second
from repro.analysis.report import format_table
from repro.kernel.simtime import msec


def test_transient_lifetimes_cedar(benchmark, cedar_results):
    reports = benchmark.pedantic(
        lambda: {
            activity: analyse(result.extras["lifetimes"])
            for activity, result in cedar_results.items()
        },
        rounds=1,
        iterations=1,
    )
    rows = []
    for activity, report in reports.items():
        rows.append(
            [
                activity,
                report.transient_count,
                f"{report.mean_transient_lifetime / 1000:.1f} ms",
                f"{report.max_transient_lifetime / 1000:.1f} ms",
            ]
        )
    print()
    print(
        format_table(
            "F5 (Cedar): finished transient threads per benchmark "
            "(paper: mean lifetime well under 1 second)",
            ["activity", "transients", "mean lifetime", "max lifetime"],
            rows,
        )
    )
    for activity, report in reports.items():
        if report.transient_count == 0:
            continue
        assert is_well_under_a_second(report), activity
        assert report.mean_transient_lifetime < msec(500)
    # The forking activities produce plenty of transients to judge by.
    assert reports["formatting"].transient_count >= 20
    assert reports["keyboard"].transient_count >= 30
    # "Transient threads are by far the most numerous" among finishers.
    assert reports["formatting"].transient_share >= 0.9


def test_gvx_finishes_no_threads(benchmark, gvx_results):
    reports = benchmark.pedantic(
        lambda: {
            activity: analyse(result.extras["lifetimes"])
            for activity, result in gvx_results.items()
        },
        rounds=1,
        iterations=1,
    )
    for activity, report in reports.items():
        assert report.finished == 0, activity  # 22 eternal threads, period
