"""Host time normalised by the machine's speed while it was measured.

The benchmark runs on shared machines whose speed drifts by tens of
percent within a minute as neighbours come and go: on a shared 2-vCPU
Xeon VM a fixed million-iteration loop took 35 to 48 ms within 40
seconds, and the same litmus pass anywhere from 1.2 to 2.0 s.
Raw wall time then says more about the neighbours than about the code.

So each timed call runs with a speed probe: every ``INTERVAL_S`` of
wall time a ``SIGALRM`` handler times one fixed reference loop
(``_LOOP`` additions, about 0.1 ms, so about 0.5% of the call).  The
probe's own time is subtracted from the call's, and the rest is divided
by the mean loop time over the call and multiplied by
:data:`REFERENCE_S`.  The loop uses none of the simulator's code, so no
change to ``src/`` moves it, and its samples cover the call's whole
interval, so a neighbour's burst slows both alike.  On that VM this cut
the spread (interquartile range over median) of a workload's pass time
across ten runs from 7-18% to 1-5%.

A *normalised second* is "the time this would take on a machine that
runs the reference loop in exactly ``REFERENCE_S``"; the VM above runs
it in about that when quiet.  Raw seconds are printed beside every
normalised metric.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable

#: What one reference loop counts as.
REFERENCE_S = 100e-6
#: Wall time between probe samples.
INTERVAL_S = 0.02

_LOOP = 3000


def _reference_loop() -> float:
    start = time.perf_counter()
    total = 0
    for step in range(_LOOP):
        total += step
    return time.perf_counter() - start


class SpeedProbe:
    """Samples the reference loop every ``INTERVAL_S`` while started."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _on_alarm(self, signum, frame) -> None:
        self.samples.append(_reference_loop())

    def start(self) -> None:
        self.samples = []
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalise(self, elapsed: float) -> tuple[float, float]:
        """``(raw, normalised)`` seconds of a probed interval that took
        ``elapsed`` seconds of wall time, probe included."""
        samples = self.samples
        raw = elapsed - sum(samples)
        if len(samples) < 5:
            # An interval shorter than a few ticks: sample right after it.
            samples = samples + [_reference_loop() for _ in range(5)]
        return raw, raw / statistics.mean(samples) * REFERENCE_S


class NormalisedTimer:
    """Times calls under the speed probe and keeps, per label, their raw
    and normalised durations."""

    def __init__(self) -> None:
        self.raw_s: dict[str, list[float]] = {}
        self.normalised_s: dict[str, list[float]] = {}
        self._probe = SpeedProbe()

    def time(self, label: str, call: Callable, *args):
        """Run ``call(*args)``, record its duration, return its result."""
        gc.collect()
        self._probe.start()
        start = time.perf_counter()
        try:
            result = call(*args)
        finally:
            elapsed = time.perf_counter() - start
            self._probe.stop()
        self.record(label, *self._probe.normalise(elapsed))
        return result

    def record(self, label: str, raw: float, normalised: float) -> None:
        self.raw_s.setdefault(label, []).append(raw)
        self.normalised_s.setdefault(label, []).append(normalised)

    def median(self, label: str) -> float:
        """Median normalised duration of the calls under ``label``."""
        return statistics.median(self.normalised_s[label])

    def raw_median(self, label: str) -> float:
        return statistics.median(self.raw_s[label])
