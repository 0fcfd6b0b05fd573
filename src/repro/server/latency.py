"""Log-bucketed latency histograms: the server world's SLO instrument.

End-to-end request latencies span four orders of magnitude (a hit on an
idle worker completes in hundreds of microseconds; a retried request in
an overloaded queue takes most of a second), so linear buckets would
either blur the tail or waste thousands of slots.  Power-of-two buckets
give constant relative resolution: bucket ``i`` counts latencies whose
microsecond value has bit length ``i``, i.e. the interval
``[2**(i-1), 2**i)``, with bucket 0 reserved for zero.

Percentile queries return the *upper bound* of the bucket containing the
requested rank (clamped to the observed maximum), so reported p99s are
conservative and — critically for the determinism guarantee — a pure
function of the recorded counts.  Everything here is integer arithmetic:
identical runs produce identical histograms, identical digests.
"""

from __future__ import annotations

import hashlib
import json

#: Enough buckets for latencies up to ~2**39 µs (~6 days of sim time).
BUCKET_COUNT = 40

#: The quantile set every report carries, in report order.
QUANTILES: tuple[tuple[str, float], ...] = (
    ("p50", 0.50),
    ("p95", 0.95),
    ("p99", 0.99),
    ("p999", 0.999),
)


class LatencyHistogram:
    """A fixed-size log2 histogram over non-negative integer microseconds."""

    __slots__ = ("counts", "total", "sum", "min", "max")

    def __init__(self) -> None:
        self.counts = [0] * BUCKET_COUNT
        self.total = 0
        self.sum = 0
        self.min: int | None = None
        self.max: int | None = None

    # -- recording ---------------------------------------------------------

    def record(self, latency_us: int) -> None:
        if latency_us < 0:
            raise ValueError(f"negative latency {latency_us}")
        index = min(latency_us.bit_length(), BUCKET_COUNT - 1)
        self.counts[index] += 1
        self.total += 1
        self.sum += latency_us
        if self.min is None or latency_us < self.min:
            self.min = latency_us
        if self.max is None or latency_us > self.max:
            self.max = latency_us

    def merge(self, other: "LatencyHistogram") -> None:
        """Fold another histogram in (per-tenant -> global rollups)."""
        for index, count in enumerate(other.counts):
            self.counts[index] += count
        self.total += other.total
        self.sum += other.sum
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)

    # -- queries -----------------------------------------------------------

    def percentile(self, fraction: float) -> int:
        """The latency at the given rank fraction (0 < fraction <= 1).

        Returns the upper bound of the bucket holding that rank, clamped
        to the observed maximum; 0 for an empty histogram.
        """
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction {fraction} outside (0, 1]")
        if self.total == 0:
            return 0
        # Rank of the target observation: ceil(total * fraction), 1-based.
        scaled = self.total * fraction
        target = int(scaled)
        if target < scaled:
            target += 1
        target = max(1, min(self.total, target))
        cumulative = 0
        for index, count in enumerate(self.counts):
            cumulative += count
            if cumulative >= target:
                upper = 0 if index == 0 else (1 << index) - 1
                return min(upper, self.max if self.max is not None else upper)
        return self.max or 0  # pragma: no cover - counts always sum to total

    def quantiles(self) -> dict[str, int]:
        return {name: self.percentile(q) for name, q in QUANTILES}

    def attainment(self, slo_us: int) -> float:
        """Fraction of recorded latencies at or below ``slo_us``.

        Computed from the bucket counts, so it is conservative: a bucket
        counts as "within SLO" only when its *upper* bound fits, except
        that an SLO at or above the observed maximum is 1.0 exactly.
        An empty histogram attains trivially (1.0).
        """
        if slo_us < 0:
            raise ValueError(f"negative SLO target {slo_us}")
        if self.total == 0:
            return 1.0
        if self.max is not None and slo_us >= self.max:
            return 1.0
        within = 0
        for index, count in enumerate(self.counts):
            upper = 0 if index == 0 else (1 << index) - 1
            if upper > slo_us:
                break
            within += count
        return within / self.total

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    # -- serialisation -----------------------------------------------------

    def to_dict(self) -> dict:
        """Canonical JSON-ready form (sparse counts keyed by bucket)."""
        return {
            "buckets": {
                str(i): c for i, c in enumerate(self.counts) if c
            },
            "total": self.total,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            **self.quantiles(),
        }

    def digest(self) -> str:
        """SHA-256 over the canonical form — the determinism check."""
        return hashlib.sha256(
            json.dumps(self.to_dict(), sort_keys=True).encode()
        ).hexdigest()

    def __repr__(self) -> str:
        qs = self.quantiles()
        return (
            f"<LatencyHistogram n={self.total} p50={qs['p50']} "
            f"p99={qs['p99']} max={self.max}>"
        )


def attainment_from_dict(latency: dict | None, slo_us: int) -> float:
    """:meth:`LatencyHistogram.attainment` over a serialized histogram.

    Reports carry histograms in :meth:`LatencyHistogram.to_dict` form;
    the SLO-feedback loop reads attainment straight from those dicts
    without rebuilding the histogram object.
    """
    if not latency or not latency.get("total"):
        return 1.0
    maximum = latency.get("max")
    if maximum is not None and slo_us >= maximum:
        return 1.0
    within = 0
    for bucket, count in latency["buckets"].items():
        index = int(bucket)
        upper = 0 if index == 0 else (1 << index) - 1
        if upper <= slo_us:
            within += count
    return within / latency["total"]


def bucket_label(index: int) -> str:
    """Human-readable range of bucket ``index`` ("512us..1ms")."""
    if index == 0:
        return "0us"
    low, high = 1 << (index - 1), (1 << index) - 1
    return f"{_fmt_us(low)}..{_fmt_us(high)}"


def _fmt_us(value: int) -> str:
    """Compact microsecond label: 512us, 8ms, 2s."""
    if value >= 1_000_000 and value % 1_000_000 == 0:
        return f"{value // 1_000_000}s"
    if value >= 1_000 and value % 1_000 == 0:
        return f"{value // 1_000}ms"
    if value >= 1_000_000:
        return f"{value / 1_000_000:.1f}s"
    if value >= 1_000:
        return f"{value / 1_000:.1f}ms"
    return f"{value}us"
