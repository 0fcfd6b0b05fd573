"""LatencyHistogram unit tests: merge() and percentile() edge cases.

The histogram is the SLO instrument every report (server, cluster,
benchmarks) folds into, so its corner cases — empty merges, single
buckets, disjoint ranges, rank rounding — get direct coverage here
rather than indirectly through a world run.
"""

import pytest

from repro.server.latency import (
    BUCKET_COUNT,
    LatencyHistogram,
    attainment_from_dict,
    bucket_label,
)


def hist(*values: int) -> LatencyHistogram:
    h = LatencyHistogram()
    for value in values:
        h.record(value)
    return h


# -- percentile --------------------------------------------------------------

def test_percentile_empty_is_zero():
    empty = LatencyHistogram()
    for q in (0.5, 0.99, 1.0):
        assert empty.percentile(q) == 0
    assert empty.quantiles() == {"p50": 0, "p95": 0, "p99": 0, "p999": 0}


def test_percentile_rejects_bad_fraction():
    h = hist(100)
    for q in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError):
            h.percentile(q)


def test_percentile_single_observation_everywhere():
    """One sample: every quantile is that sample (clamped to max)."""
    h = hist(700)
    for q in (0.001, 0.5, 0.99, 1.0):
        assert h.percentile(q) == 700


def test_percentile_single_bucket_clamps_to_max():
    """Many samples in one bucket: the bucket's upper bound exceeds the
    observed maximum, so the clamp keeps reports conservative-but-true."""
    h = hist(1000, 1100, 1300)  # all in bucket [1024, 2047]
    assert h.percentile(0.5) == 1300
    assert h.percentile(1.0) == 1300


def test_percentile_returns_bucket_upper_bound():
    """With the tail observation in a higher bucket, mid quantiles report
    the *upper bound* of the bucket holding the rank."""
    h = hist(*([10] * 99), 100_000)
    assert h.percentile(0.5) == 15  # bucket [8, 15]
    assert h.percentile(0.99) == 15
    assert h.percentile(1.0) == 100_000


def test_percentile_rank_rounds_up():
    """ceil semantics: p50 of two observations is the first, not an
    interpolation — integer determinism over statistical nicety."""
    h = hist(1, 1_000_000)
    assert h.percentile(0.5) == 1
    assert h.percentile(0.51) == 1_000_000  # tail bucket, clamped to max


def test_record_negative_rejected():
    with pytest.raises(ValueError):
        LatencyHistogram().record(-1)


def test_zero_goes_to_bucket_zero():
    h = hist(0, 0, 0)
    assert h.counts[0] == 3
    assert h.percentile(1.0) == 0
    assert bucket_label(0) == "0us"


def test_huge_latency_clamps_to_last_bucket():
    """Past the last bucket the histogram saturates: the reported
    quantile is the final bucket's upper bound, not the raw maximum."""
    h = hist(1 << 60)
    assert h.counts[BUCKET_COUNT - 1] == 1
    assert h.percentile(1.0) == (1 << (BUCKET_COUNT - 1)) - 1
    assert h.max == 1 << 60  # the true extreme survives in max


# -- merge -------------------------------------------------------------------

def test_merge_empty_into_empty():
    a, b = LatencyHistogram(), LatencyHistogram()
    a.merge(b)
    assert a.total == 0 and a.sum == 0
    assert a.min is None and a.max is None


def test_merge_empty_is_identity():
    a = hist(5, 50, 500)
    before = a.to_dict()
    a.merge(LatencyHistogram())
    assert a.to_dict() == before


def test_merge_into_empty_copies():
    a = LatencyHistogram()
    b = hist(5, 50, 500)
    a.merge(b)
    assert a.to_dict() == b.to_dict()


def test_merge_disjoint_ranges():
    """Shard A saw only fast requests, shard B only slow ones: the merge
    must keep both tails and recompute min/max across the union."""
    fast = hist(10, 20, 30)
    slow = hist(1_000_000, 2_000_000)
    fast.merge(slow)
    assert fast.total == 5
    assert fast.min == 10
    assert fast.max == 2_000_000
    assert fast.sum == 10 + 20 + 30 + 1_000_000 + 2_000_000
    assert fast.percentile(0.5) == 31  # still in the fast bucket
    assert fast.percentile(1.0) == 2_000_000


def test_merge_matches_recording_union():
    """merge(A, B) is indistinguishable from recording A∪B directly —
    the property the cluster rollup depends on."""
    values_a = [3, 17, 17, 900, 40_000]
    values_b = [0, 17, 1_000_000]
    merged = hist(*values_a)
    merged.merge(hist(*values_b))
    direct = hist(*values_a, *values_b)
    assert merged.to_dict() == direct.to_dict()


def test_merge_does_not_mutate_source():
    a, b = hist(1), hist(1_000)
    b_before = b.to_dict()
    a.merge(b)
    assert b.to_dict() == b_before


# -- overflow bucket ---------------------------------------------------------

def test_overflow_bucket_collapses_extremes():
    """Everything past bucket 38's range lands in the final bucket, so
    two wildly different extremes become indistinguishable to the
    quantiles — only min/max/sum keep the true values."""
    h = hist(1 << 45, 1 << 50)
    assert h.counts[BUCKET_COUNT - 1] == 2
    assert h.percentile(0.5) == h.percentile(1.0)
    assert h.max == 1 << 50
    assert h.sum == (1 << 45) + (1 << 50)


def test_below_overflow_bucket_keeps_resolution():
    """2**38 - 1 still has its own bucket; 2**38 crosses into overflow."""
    below = hist((1 << 38) - 1)
    assert below.counts[BUCKET_COUNT - 1] == 0
    at = hist(1 << 38)
    assert at.counts[BUCKET_COUNT - 1] == 1


def test_overflow_merge_saturates_percentile():
    """The merged tail quantile saturates at the final bucket's bound
    ((1 << 39) - 1), not the true maximum — max alone keeps the truth."""
    a = hist(10)
    a.merge(hist(1 << 45))
    assert a.counts[BUCKET_COUNT - 1] == 1
    assert a.percentile(1.0) == (1 << (BUCKET_COUNT - 1)) - 1
    assert a.max == 1 << 45


# -- attainment --------------------------------------------------------------

def test_attainment_empty_is_trivially_one():
    assert LatencyHistogram().attainment(0) == 1.0
    assert attainment_from_dict(None, 100) == 1.0
    assert attainment_from_dict(LatencyHistogram().to_dict(), 100) == 1.0


def test_attainment_rejects_negative_slo():
    with pytest.raises(ValueError):
        hist(5).attainment(-1)


def test_attainment_at_or_above_max_is_exactly_one():
    """SLO at the observed maximum attains 1.0 even though the max's
    bucket upper bound exceeds the SLO — the conservative bucket rule
    must not penalize a histogram that demonstrably met its target."""
    h = hist(100, 900, 1300)
    assert h.attainment(1300) == 1.0
    assert h.attainment(1299) < 1.0


def test_attainment_is_bucket_conservative():
    """A bucket counts as within-SLO only when its upper bound fits:
    700 lands in [512, 1023], so an 800 us SLO cannot credit it."""
    h = hist(700, 2_000_000)
    assert h.attainment(800) == 0.0
    assert h.attainment(1023) == 0.5


def test_attainment_from_dict_matches_object():
    h = hist(10, 100, 1_000, 10_000, 100_000)
    for slo in (0, 15, 1_023, 99_999, 100_000, 10**9):
        assert attainment_from_dict(h.to_dict(), slo) == h.attainment(slo)


def test_attainment_overflow_bucket_saturates():
    """The overflow bucket saturates attainment the same way it does
    percentile: an observation of 2**45 registers under the final
    bucket's bound ((1 << 39) - 1), so SLOs past that bound credit it
    even though the true value was far larger — the known cost of a
    bounded histogram, pinned here so a regression is loud."""
    h = hist(1 << 45)
    bound = (1 << (BUCKET_COUNT - 1)) - 1
    assert h.attainment(bound - 1) == 0.0
    assert h.attainment(bound) == 1.0
    assert h.attainment(1 << 45) == 1.0  # at the true max, exact
