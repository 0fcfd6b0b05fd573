"""Deadlock avoiders (Section 4.4): FORK instead of violating lock order.

"After adjusting the boundary between two windows the contents of the
windows must be repainted.  The boundary-moving thread forks new threads
to do the repainting because it already holds some, but not all of the
locks needed for the repainting. ...  It is far simpler to fork the
painting threads, unwind the adjuster completely and let the painters
acquire the locks that they need in separate threads."

:class:`WindowManager` reproduces that scenario concretely enough to
demonstrate both outcomes: ``adjust_boundary(..., fork_repaint=False)``
repaints inline while holding the tree lock — which deadlocks against a
concurrent painter that takes window-then-tree — while
``fork_repaint=True`` (the paradigm) is deadlock-free by construction.

:func:`fork_callback` is the second §4.4 flavour: "forking the callbacks
from a service module to a client module ... also insulates the service
from things that may go wrong in the client callback."
"""

from __future__ import annotations

from typing import Any, Callable

from repro.kernel.primitives import Compute, Fork, ThreadProc
from repro.kernel.simtime import usec
from repro.sync.monitor import Monitor


def fork_callback(
    callback: ThreadProc,
    args: tuple = (),
    *,
    name: str = "callback",
    priority: int | None = None,
):
    """Run a client callback in its own thread so the service can proceed
    and "eventually [release] locks it holds that will be needed by the
    client" — and so client failures cannot take the service down."""
    handle = yield Fork(callback, args=args, name=name, priority=priority, detached=True)
    return handle


class Window:
    """A window with its own monitor (a monitored record)."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.lock = Monitor(f"window.{name}")
        self.repaints = 0
        self.bounds = (0, 0)


class WindowManager:
    """The window tree: a tree lock plus per-window locks.

    Lock order discipline: window lock *before* tree lock (painters
    naturally take their window first).  The boundary adjuster holds the
    tree lock, so repainting inline from the adjuster acquires in the
    reverse order — the classic deadlock the paradigm avoids.
    """

    def __init__(self) -> None:
        self.tree_lock = Monitor("window-tree")
        self.windows: dict[str, Window] = {}
        self.adjustments = 0
        self.forked_repaints = 0

    def add_window(self, name: str) -> Window:
        window = Window(name)
        self.windows[name] = window
        return window

    def paint(self, window: Window, *, cost: int = usec(200)):
        """A painter: window lock for the whole repaint, tree lock taken
        mid-paint to post damage — the canonical window-then-tree order."""
        yield window.lock.enter
        try:
            yield Compute(cost)  # rasterise under the window lock
            yield self.tree_lock.enter
            try:
                bounds = window.bounds  # post damage to the layout tree
            finally:
                yield self.tree_lock.exit
            window.repaints += 1
            return bounds
        finally:
            yield window.lock.exit

    def adjust_boundary(
        self,
        upper: Window,
        lower: Window,
        delta: int,
        *,
        fork_repaint: bool = True,
    ):
        """Move the boundary between two windows, then repaint both.

        With ``fork_repaint=True`` the adjuster "unwinds completely" and
        detached painter threads acquire locks in the correct order.
        With ``False`` it repaints inline while still holding the tree
        lock — acquiring window locks *after* the tree lock, the
        order violation the paradigm exists to avoid.
        """
        yield self.tree_lock.enter
        try:
            upper.bounds = (upper.bounds[0], upper.bounds[1] + delta)
            lower.bounds = (lower.bounds[0] + delta, lower.bounds[1])
            self.adjustments += 1
            yield Compute(usec(50))
            if not fork_repaint:
                # Inline repaint: tree lock held, taking window locks now.
                for window in (upper, lower):
                    yield window.lock.enter
                    try:
                        yield Compute(usec(200))
                        window.repaints += 1
                    finally:
                        yield window.lock.exit
        finally:
            yield self.tree_lock.exit
        if fork_repaint:
            for window in (upper, lower):
                self.forked_repaints += 1
                yield Fork(
                    self._repaint_proc,
                    args=(window,),
                    name=f"repaint.{window.name}",
                    detached=True,
                )

    def _repaint_proc(self, window: Window):
        yield from self.paint(window)


class FlakyClientError(RuntimeError):
    """Raised by misbehaving client callbacks in the insulation tests."""


def finalization_service(
    registry: list[ThreadProc],
    *,
    forked: bool = True,
) -> Callable[[], Any]:
    """The garbage-collector finalization pattern: "The finalization
    service thread forks each callback."

    Returns a thread proc that runs every registered finalizer, forked
    (insulated) or inline (a client error kills the service).
    """

    def service():
        for callback in list(registry):
            if forked:
                yield Fork(callback, name="finalizer", detached=True)
            else:
                yield from callback()

    return service
