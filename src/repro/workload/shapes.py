"""Load shapes: rate multipliers over simulated time.

A shape maps sim-time to a dimensionless multiplier applied to a client
class's aggregate base rate.  The scenario compiler turns the shaped
rate into a non-homogeneous Poisson process by *thinning* (candidate
arrivals at the shape's peak rate, each accepted with probability
``value(t) / peak()``), so every shape must report a finite upper bound
via :meth:`~LoadShape.peak`.

All curves are piecewise linear on purpose: linear interpolation uses
only IEEE-defined +,-,*,/ so the schedules they drive hash identically
on every platform — transcendental functions (``math.sin`` et al.) vary
at the ULP level across libm builds and would break the golden pins.
"""

from __future__ import annotations

from dataclasses import dataclass


class LoadShape:
    """Base: a multiplier curve with a finite peak."""

    def value(self, t: int) -> float:  # pragma: no cover - interface
        raise NotImplementedError

    def peak(self) -> float:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(frozen=True)
class Constant(LoadShape):
    """A flat multiplier — plain homogeneous Poisson arrivals."""

    level: float = 1.0

    def value(self, t: int) -> float:
        return self.level

    def peak(self) -> float:
        return self.level


@dataclass(frozen=True)
class Diurnal(LoadShape):
    """A day curve: overnight trough, ramp, midday plateau, ramp down.

    Piecewise linear over one ``period``, repeating: ``low`` for the
    first 10% of the period, a ramp to ``high`` by 35%, a plateau to
    70%, and a ramp back to ``low`` at the wrap.  Scaled down to a
    1-2 s simulated run, a sub-second period still exercises the whole
    curve several times.
    """

    period: int
    low: float = 0.4
    high: float = 1.0

    def _points(self) -> tuple[tuple[float, float], ...]:
        return (
            (0.0, self.low), (0.10, self.low), (0.35, self.high),
            (0.70, self.high), (1.0, self.low),
        )

    def value(self, t: int) -> float:
        phase = (t % self.period) / self.period
        points = self._points()
        for (x0, y0), (x1, y1) in zip(points, points[1:]):
            if phase <= x1:
                if x1 == x0:
                    return y1
                return y0 + (y1 - y0) * (phase - x0) / (x1 - x0)
        return self.low  # pragma: no cover - phase is always <= 1.0

    def peak(self) -> float:
        return max(self.low, self.high)


@dataclass(frozen=True)
class FlashCrowd(LoadShape):
    """Baseline load with one spike: ramp up, hold, ramp down.

    The shape is ``base`` everywhere except the crowd window starting at
    ``start``: a linear ramp to ``base * spike`` over ``ramp`` µs, a
    plateau for ``hold`` µs, and a symmetric ramp back down.
    """

    spike: float
    start: int
    ramp: int
    hold: int
    base: float = 1.0

    def value(self, t: int) -> float:
        top = self.base * self.spike
        up_end = self.start + self.ramp
        down_start = up_end + self.hold
        down_end = down_start + self.ramp
        if t < self.start or t >= down_end:
            return self.base
        if t < up_end:
            return self.base + (top - self.base) * (t - self.start) / self.ramp
        if t < down_start:
            return top
        return top - (top - self.base) * (t - down_start) / self.ramp

    def peak(self) -> float:
        return max(self.base, self.base * self.spike)

