"""E1 (§5.5 future work): adaptive vs fixed timeout constants.

"Timeouts ... chosen with some particular now-obsolete processor speed
or network architecture in mind ... dynamically tuning application
timeout values based on end-to-end system performance may be a workable
solution."  The experiment runs a fixed timeout (tuned once, for the old
slow machine) and the RTO-style adaptive timer against four server
generations and measures both failure modes.
"""

from repro.analysis.report import format_table
from repro.extensions.adaptive_timeout import run_generations


def test_adaptive_timeout_generations(benchmark):
    results = benchmark.pedantic(run_generations, rounds=1, iterations=1)
    rows = []
    for generation, pair in results.items():
        for policy, r in pair.items():
            rows.append(
                [
                    generation,
                    policy,
                    r.completed,
                    r.spurious_timeouts,
                    f"{(r.crash_detection_time or 0) / 1000:.0f} ms",
                    f"{r.final_timeout / 1000:.0f} ms",
                ]
            )
    print()
    print(
        format_table(
            "E1: fixed (tuned for 'old-slow') vs adaptive timeouts "
            "across hardware generations",
            ["generation", "policy", "completed", "spurious timeouts",
             "crash detection", "final timeout"],
            rows,
        )
    )

    for generation, pair in results.items():
        # Both policies complete all healthy calls except where the fixed
        # constant misfires.
        assert pair["adaptive"].completed == pair["adaptive"].calls
        # The adaptive timer never times out a healthy server.
        assert pair["adaptive"].spurious_timeouts == 0

    # Failure mode 1: on faster hardware the stale constant detects a
    # crash an order of magnitude slower than the adaptive timer.
    fast = results["new-fast"]
    assert fast["adaptive"].crash_detection_time * 5 < (
        fast["fixed"].crash_detection_time
    )
    # Failure mode 2: on the degraded link the stale constant misfires on
    # healthy calls; the adaptive timer has grown past the tail.
    degraded = results["degraded"]
    assert degraded["fixed"].spurious_timeouts >= 3
    assert degraded["adaptive"].final_timeout > degraded["fixed"].final_timeout

    # And it still tracks load on the original machine.
    loaded = results["loaded"]
    assert loaded["adaptive"].final_timeout > results["old-slow"][
        "adaptive"
    ].final_timeout
