"""One-shots (Section 4.3): "sleeper processes that sleep for a while, run
and then go away."

The paper's running example is the *guarded button*: "A guarded button
must be pressed twice, in close, but not too close succession.  They
usually look like 'Butten' on the screen."  After the first press a
one-shot sleeps through an *arming period* (second clicks inside it are
too close), then changes the label to "Button" and sleeps through the
*invocation window*; a second click inside the window fires the action,
otherwise the one-shot repaints the guard.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.kernel.primitives import Compute, Pause
from repro.kernel.simtime import msec, usec
from repro.sync.monitor import Monitor


def one_shot(delay: int, work: Callable[[], Any], *, work_cost: int = usec(100)):
    """Thread body: sleep ``delay``, run ``work`` once, exit.

    The building block behind DelayedFork: fork this proc detached and a
    procedure gets called "at some time in the future".
    """

    def proc():
        yield Pause(delay)
        if work_cost:
            yield Compute(work_cost)
        result = work()
        if hasattr(result, "send"):
            yield from result

    return proc


# Guarded-button states.
GUARDED = "Butten"   # the guard is painted (deliberately misspelled glyph)
ARMED = "Button"     # armed: a second click now invokes the action


class GuardedButton:
    """The two-phase guarded button driven by a one-shot thread.

    Call :meth:`press` (a generator: ``yield from button.press()``) for
    each click.  The first click forks a one-shot that arms the button
    after ``arming_period`` and disarms it again ``invocation_window``
    later.  A click while armed invokes ``action``; a click during the
    arming period is swallowed ("in close, but not too close succession").
    """

    def __init__(
        self,
        name: str,
        action: Callable[[], Any],
        *,
        arming_period: int = msec(100),
        invocation_window: int = msec(1500),
    ) -> None:
        self.name = name
        self.action = action
        self.arming_period = arming_period
        self.invocation_window = invocation_window
        self.monitor = Monitor(f"{name}.lock")
        self.label = GUARDED
        self.invocations = 0
        self.repaints = 0
        self._epoch = 0
        self._pending = False

    def press(self):
        """Handle one click; returns "invoked", "armed", or "ignored"."""
        yield self.monitor.enter
        try:
            if self.label == ARMED:
                self.invocations += 1
                self.label = GUARDED
                self._epoch += 1  # cancel the outstanding disarm one-shot
                self._pending = False
                result = self.action()
                if hasattr(result, "send"):
                    yield from result
                return "invoked"
            if self._pending:
                return "ignored"  # too close: still in the arming period
            self._pending = True
            epoch = self._epoch
        finally:
            yield self.monitor.exit
        # Outside the monitor: the one-shot must not hold the lock while
        # sleeping (a §4.4-style constraint), so press() forks it.
        from repro.kernel.primitives import Fork

        yield Fork(
            self._arming_one_shot,
            args=(epoch,),
            name=f"{self.name}.oneshot",
            detached=True,
        )
        return "armed-pending"

    def _arming_one_shot(self, epoch: int):
        """The one-shot: arm after the arming period, disarm after the
        invocation window expires unused."""
        yield Pause(self.arming_period)
        yield self.monitor.enter
        try:
            if epoch != self._epoch:
                return  # superseded
            self.label = ARMED
            self._pending = False
        finally:
            yield self.monitor.exit
        yield Pause(self.invocation_window)
        yield self.monitor.enter
        try:
            if epoch != self._epoch:
                return  # a second click invoked the action meanwhile
            if self.label == ARMED:
                self.label = GUARDED
                self.repaints += 1
        finally:
            yield self.monitor.exit
