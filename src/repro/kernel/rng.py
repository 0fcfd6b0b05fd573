"""Deterministic randomness for the kernel.

All nondeterminism in the simulation flows through one seeded generator so
that a run is a pure function of (program, config).  The property tests rely
on this: same seed in, identical trace out.

``DeterministicRng`` wraps :class:`random.Random` rather than exposing it
directly so the kernel code can only use the operations we have audited for
cross-version stability (``random.Random``'s core methods are stable across
CPython versions for a fixed seed).
"""

from __future__ import annotations

import functools
import random
import zlib
from typing import Sequence, TypeVar

T = TypeVar("T")


class DeterministicRng:
    """A seeded random source with a deliberately small surface."""

    def __init__(self, seed: int) -> None:
        self._seed = seed

    @functools.cached_property
    def _random(self) -> random.Random:
        """The generator, seeded on the first draw.  Seeding costs more
        than most streams ever draw: a kernel forks streams that many
        runs never touch.  A stream's draws do not depend on when it was
        seeded, and :meth:`fork` reads only the seed."""
        return random.Random(self._seed)

    def uniform(self) -> float:
        """A float in [0, 1)."""
        return self._random.random()

    def chance(self, probability: float) -> bool:
        """True with the given probability."""
        if probability <= 0.0:
            return False
        if probability >= 1.0:
            return True
        return self._random.random() < probability

    def randint(self, low: int, high: int) -> int:
        """An integer in [low, high] inclusive."""
        return self._random.randint(low, high)

    def choice(self, items: Sequence[T]) -> T:
        """A uniformly chosen element of a non-empty sequence."""
        if not items:
            raise ValueError("choice from empty sequence")
        return self._random.choice(items)

    def expovariate(self, rate_per_usec: float) -> int:
        """An exponentially distributed interval, in microseconds (>= 1)."""
        if rate_per_usec <= 0.0:
            raise ValueError("rate must be positive")
        return max(1, round(self._random.expovariate(rate_per_usec)))

    def fork(self, label: str) -> "DeterministicRng":
        """Derive an independent stream, stable under unrelated draws.

        Workload generators each take a forked stream so adding a draw in
        one component does not perturb every other component's sequence.
        The derivation uses CRC32, not ``hash()``, because string hashing is
        salted per-process and would break run-to-run determinism.
        """
        derived = zlib.crc32(f"{self._seed}:{label}".encode()) & 0x7FFFFFFF
        return DeterministicRng(derived)
