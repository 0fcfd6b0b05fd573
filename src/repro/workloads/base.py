"""Workload building blocks shared by the Cedar and GVX worlds.

The synthetic worlds are assembled from three reusable pieces:

* :class:`LibraryPool` — a named population of monitors standing in for a
  subsystem's monitored modules ("reflecting their use to protect data
  structures (especially in reusable library packages)").  Threads
  ``touch`` a few random monitors per activation; the pool size bounds
  the distinct-monitor counts of Table 3.
* :class:`CvSleeper` — an eternal thread that WAITs on its own CV with a
  timeout, runs briefly, and waits again — the paper's dominant eternal-
  thread shape.  Other threads ``stimulate`` it to wake it early, which
  is what converts timeouts into notifications when the user gets active
  (the Table 2 timeout-fraction shifts).
* :func:`run_activity` — the measurement harness: build the world, warm
  it up, measure a window, return the per-activity numbers the tables
  need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.kernel.config import KernelConfig
from repro.kernel.primitives import Compute, Notify, Wait
from repro.kernel.rng import DeterministicRng
from repro.kernel.simtime import sec, usec
from repro.runtime.pcr import World
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor

#: Work under the lock for each monitor a ``LibraryPool.touch`` visits.
TOUCH_WORK = usec(2)
TOUCH_COMPUTE = Compute(TOUCH_WORK)


class LibraryPool:
    """A population of monitors modelling one subsystem's modules.

    Monitor ``i`` is built on the first draw of index ``i``: a Cedar
    world's pools name about 5,000 monitors, and most of them are never
    touched in a run.
    """

    def __init__(self, name: str, size: int, rng: DeterministicRng) -> None:
        if size < 1:
            raise ValueError("pool needs at least one monitor")
        self.name = name
        self.monitors: list[Monitor | None] = [None] * size
        self._rng = rng

    def touch(self, count: int):
        """Enter/exit ``count`` randomly chosen monitors (generator).

        Each visit does ``TOUCH_WORK`` under the lock, like the short
        monitored procedures the paper saw everywhere.
        """
        monitors, draw = self.monitors, self._rng.index
        size = len(monitors)
        for _ in range(count):
            # The index drawn is the one choosing from a list of built
            # monitors drew, so every schedule stays the same.
            index = draw(size)
            monitor = monitors[index]
            if monitor is None:
                monitor = monitors[index] = Monitor(f"{self.name}.m{index}")
            yield monitor.enter
            try:
                yield TOUCH_COMPUTE
            finally:
                yield monitor.exit


class CvSleeper:
    """An eternal thread: WAIT on a CV with timeout, run briefly, repeat.

    "There were eternal threads that repeatedly waited on a condition
    variable and then ran briefly before waiting again."  Activations
    touch ``touches`` monitors in ``pool`` and burn ``work`` CPU; the
    wait times out after ``period`` unless someone stimulates the thread.
    """

    def __init__(
        self,
        name: str,
        *,
        period: int,
        pool: LibraryPool,
        touches: int = 3,
        work: int = usec(200),
        stimulate_peer_prob: float = 0.0,
        rng: DeterministicRng | None = None,
    ) -> None:
        self.name = name
        self.monitor = Monitor(f"{name}.lock")
        self.cv = ConditionVariable(self.monitor, f"{name}.cv", timeout=period)
        self.pool = pool
        self.touches = touches
        self.work = work
        self.activations = 0
        self.pending_stimuli = 0
        self.stimulate_peer_prob = stimulate_peer_prob
        self._rng = rng
        self._notify = Notify(self.cv)

    def proc(self, peers: "Sequence[CvSleeper]" = ()):
        """The sleeper's thread body.

        Idle worlds still notify: finalization callbacks, cache pokes,
        pipeline nudges between eternal threads (the reason only ~82% of
        idle Cedar waits time out, not 100%).  Each activation stimulates
        a random one of ``peers`` with probability
        ``stimulate_peer_prob``.  The list, which holds this sleeper too,
        is a thread argument rather than an attribute, so it goes with
        the thread's body instead of tying the sleeper into a cycle.
        """
        monitor, wait, work = self.monitor, Wait(self.cv), Compute(self.work)
        while True:
            yield monitor.enter
            try:
                yield wait  # timeout or stimulation, either wakes
                if self.pending_stimuli > 0:
                    self.pending_stimuli -= 1
            finally:
                yield monitor.exit
            self.activations += 1
            if self.work:
                yield work
            if self.touches:
                yield from self.pool.touch(self.touches)
            if (
                peers
                and self._rng is not None
                and self._rng.chance(self.stimulate_peer_prob)
            ):
                peer = self._rng.choice(peers)
                if peer is not self:
                    yield from peer.stimulate()

    def stimulate(self):
        """Wake the sleeper early (generator, run on the waking thread)."""
        yield self.monitor.enter
        try:
            self.pending_stimuli += 1
            yield self._notify
        finally:
            yield self.monitor.exit


class StageSet:
    """A fixed population of monitor+CV pipeline stages.

    Activities bring their own condition variables with them — formatting
    waits on 46 distinct CVs where idle Cedar waits on 22 (Table 3).  A
    StageSet models those activity-specific CVs: worker code ``visit``\\ s
    a stage, briefly waiting on its CV until the wait times out (nothing
    notifies a stage), which is enough to register the CV as used and
    contribute its share of wait traffic.
    """

    def __init__(self, name: str, count: int, *, wait_timeout: int) -> None:
        self.name = name
        self.stages = []
        for index in range(count):
            monitor = Monitor(f"{name}.stage{index}.lock")
            cv = ConditionVariable(
                monitor, f"{name}.stage{index}.cv", timeout=wait_timeout
            )
            self.stages.append((monitor, Wait(cv)))
        self._next = 0

    def visit_next(self):
        """Wait once on the next stage round-robin (generator)."""
        monitor, wait = self.stages[self._next % len(self.stages)]
        self._next += 1
        yield monitor.enter
        try:
            yield wait
        finally:
            yield monitor.exit


@dataclass
class ActivityResult:
    """One Table-1/2/3 row, measured."""

    system: str
    activity: str
    duration: int
    forks_per_sec: float = 0.0
    switches_per_sec: float = 0.0
    waits_per_sec: float = 0.0
    timeout_fraction: float = 0.0
    ml_enters_per_sec: float = 0.0
    contention_fraction: float = 0.0
    distinct_cvs: int = 0
    distinct_mls: int = 0
    max_live_threads: int = 0
    extras: dict[str, Any] = field(default_factory=dict)


#: An activity: installs its drivers into a built world.
ActivityBuilder = Callable[[World, Any], None]


def run_activity(
    *,
    system: str,
    activity: str,
    build_world: Callable[[KernelConfig], tuple[World, Any]],
    install: ActivityBuilder | None,
    warmup: int = sec(3),
    window: int = sec(10),
    seed: int = 0,
) -> ActivityResult:
    """Build a world, install an activity, measure a window.

    ``build_world`` returns ``(world, context)`` where context carries the
    world's pools/devices for the activity to hook into.  ``install`` may
    be None for the idle rows.
    """
    world, context = build_world(KernelConfig(seed=seed))
    if install is not None:
        install(world, context)
    world.run_for(warmup)
    world.begin_measurement()
    world.run_for(window)
    stats = world.end_measurement()
    kernel_stats = world.kernel.stats
    result = ActivityResult(
        system=system,
        activity=activity,
        duration=stats.duration,
        forks_per_sec=stats.rate("forks"),
        switches_per_sec=stats.rate("switches"),
        waits_per_sec=stats.rate("cv_waits"),
        timeout_fraction=stats.fraction("cv_timeouts", "cv_waits"),
        ml_enters_per_sec=stats.rate("ml_enters"),
        contention_fraction=stats.fraction("ml_contended", "ml_enters"),
        distinct_cvs=stats.counts["cvs_used"],
        distinct_mls=stats.counts["monitors_used"],
        max_live_threads=kernel_stats.max_live_threads,
    )
    # Keep the interval samples for the F1/F2 analyses before teardown.
    result.extras["exec_intervals"] = list(kernel_stats.exec_intervals)
    result.extras["cpu_by_priority"] = dict(kernel_stats.cpu_by_priority)
    result.extras["thread_log"] = list(kernel_stats.thread_log)
    result.extras["lifetimes"] = list(kernel_stats.lifetimes)
    world.shutdown()
    return result
