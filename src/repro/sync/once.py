"""Init-once: Birrell's call-the-initialiser-exactly-once hint (§5.5).

Two variants:

* :class:`Once` — the correct, monitor-protected version.  Slower (every
  access takes the lock) but safe under any memory ordering, because
  monitor entry/exit fence.
* :class:`RacyOnce` — Birrell's performance hint: check a done flag with
  a plain read and skip the lock on the fast path.  Correct under strong
  ordering; under weak ordering "a thread can both believe that the
  initializer has already been called and not yet be able to see the
  initialized data."  Kept to demonstrate that failure; never use it on
  a weakly-ordered kernel.  (The §5.5 case study,
  :func:`repro.casestudies.weakmem.run_init_once`, writes its own
  two-variable init-once inline rather than using either class.)

Both variants store their state in :class:`SimVar` cells so the kernel's
memory model (not Python's) governs visibility.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.kernel.memory import SimVar
from repro.kernel.primitives import Enter, Exit, MemRead, MemWrite
from repro.sync.monitor import Monitor


class Once:
    """Monitor-protected exactly-once initialisation (the safe way)."""

    def __init__(self, name: str, initialiser: Callable[[], Any]) -> None:
        self.name = name
        self.monitor = Monitor(f"{name}.lock")
        self._initialiser = initialiser
        self._done = SimVar(f"{name}.done", initial=False)
        self._value = SimVar(f"{name}.value", initial=None)
        self.init_calls = 0

    def get(self):
        """Return the initialised value, initialising on first call
        (generator)."""
        yield Enter(self.monitor)
        try:
            done = yield MemRead(self._done)
            if not done:
                self.init_calls += 1
                yield MemWrite(self._value, self._initialiser())
                yield MemWrite(self._done, True)
            value = yield MemRead(self._value)
            return value
        finally:
            yield Exit(self.monitor)


class RacyOnce:
    """Birrell's hinted fast path — broken under weak ordering.

    The monitor here only *elects* the initialising thread; the value and
    the done flag are published with plain stores outside any fence (the
    whole point of the hint was to keep the fast path lock-free).  Under
    weak ordering the two stores can become visible out of order, so a
    fast-path reader "can both believe that the initializer has already
    been called and not yet be able to see the initialized data."
    """

    def __init__(self, name: str, initialiser: Callable[[], Any]) -> None:
        self.name = name
        self.monitor = Monitor(f"{name}.lock")
        self._initialiser = initialiser
        self._claimed = False  # monitor-protected election flag
        self._done = SimVar(f"{name}.done", initial=False)
        self._value = SimVar(f"{name}.value", initial=None)
        self.init_calls = 0
        #: Fast-path reads that returned an uninitialised value — the
        #: §5.5 hazard, counted so experiments can observe it.
        self.stale_fast_reads = 0

    def get(self):
        """The hinted fast path: unlocked flag check first (generator)."""
        done = yield MemRead(self._done)
        if done:
            value = yield MemRead(self._value)
            if value is None:
                self.stale_fast_reads += 1  # believed done, saw nothing
            return value
        elected = False
        yield Enter(self.monitor)
        try:
            if not self._claimed:
                self._claimed = True
                elected = True
        finally:
            yield Exit(self.monitor)
        if elected:
            # Unfenced publication: value first, flag second — program
            # order, but nothing stops the flag becoming visible first.
            self.init_calls += 1
            yield MemWrite(self._value, self._initialiser())
            yield MemWrite(self._done, True)
        value = yield MemRead(self._value)
        return value
