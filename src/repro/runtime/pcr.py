"""World: assembling a thread population on a kernel.

A *world* in Cedar terminology is one running image — its eternal threads,
its daemons, its devices.  This facade keeps workload code declarative:

    world = World(KernelConfig(seed=3))
    world.add_eternal(cursor_blinker, name="BlinkCursor", priority=5)
    keyboard = world.add_device("keyboard")
    world.install_daemon()
    world.run_for(sec(30))

It also carries the measurement-window helpers the Table 1-3 analyses
use: ``begin_measurement`` takes the kernel's counters and clears the
distinct-use sets after warm-up; ``end_measurement`` returns a
:class:`WindowStats`.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.kernel.channel import Channel
from repro.kernel.config import DEFAULT_PRIORITY, KernelConfig
from repro.kernel.kernel import Kernel
from repro.kernel.stats import WindowStats
from repro.kernel.thread import SimThread
from repro.runtime.daemon import install_system_daemon


class World:
    """One simulated Cedar/GVX-style world."""

    def __init__(self, config: KernelConfig | None = None) -> None:
        self.kernel = Kernel(config)
        self.eternal_threads: list[SimThread] = []
        self.devices: dict[str, Channel] = {}
        self._window_start: tuple[int, dict[str, int]] | None = None

    # -- population -------------------------------------------------------

    def add_eternal(
        self,
        proc: Callable[..., Any],
        args: tuple = (),
        *,
        name: str,
        priority: int = DEFAULT_PRIORITY,
    ) -> SimThread:
        """An eternal thread: "repeatedly waited on a condition variable
        and then ran briefly before waiting again" (Section 3)."""
        thread = self.kernel.fork_root(
            proc, args, name=name, priority=priority, role="eternal"
        )
        self.eternal_threads.append(thread)
        return thread

    def add_worker(
        self,
        proc: Callable[..., Any],
        args: tuple = (),
        *,
        name: str,
        priority: int = DEFAULT_PRIORITY,
    ) -> SimThread:
        """A worker thread "forked to perform some activity, such as
        formatting a document"."""
        return self.kernel.fork_root(
            proc, args, name=name, priority=priority, role="worker"
        )

    def add_device(self, name: str) -> Channel:
        """A device channel (keyboard, mouse, network, display socket)."""
        channel = self.kernel.channel(name)
        self.devices[name] = channel
        return channel

    def install_daemon(self, **kwargs: Any) -> SimThread:
        """Install the SystemDaemon (priority 6 proportional scheduling)."""
        thread = install_system_daemon(self.kernel, **kwargs)
        self.eternal_threads.append(thread)
        return thread

    # -- running and measuring ---------------------------------------------

    def run_for(self, duration: int, **kwargs: Any) -> int:
        return self.kernel.run_for(duration, **kwargs)

    def begin_measurement(self) -> None:
        """Start a stats window; clears the Table-3 distinct-use sets."""
        self.kernel.stats.clear_distinct()
        self._window_start = (self.kernel.now, self.kernel.stats.counters())

    def end_measurement(self) -> WindowStats:
        """Close the window opened by :meth:`begin_measurement`."""
        if self._window_start is None:
            raise RuntimeError("begin_measurement was never called")
        start_time, start = self._window_start
        self._window_start = None
        stats = self.kernel.stats
        end = stats.counters()
        window = WindowStats(duration=self.kernel.now - start_time)
        window.counts = {name: end[name] - start[name] for name in end}
        # Distinct counts are within-window absolutes, not deltas, because
        # begin_measurement cleared the sets.
        window.counts["monitors_used"] = len(stats.monitors_used)
        window.counts["cvs_used"] = len(stats.cvs_used)
        return window

    def shutdown(self) -> None:
        self.kernel.shutdown()
