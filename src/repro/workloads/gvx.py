"""The synthetic GVX world (paper Section 3, Tables 1-3).

GVX is the product system and behaves "noticeably different" from Cedar:

* "An idle GVX world contains 22 eternal threads and forks no additional
  threads.  In fact, no additional threads are forked for any user
  interface activity, be it keyboard, mouse, or windowing activity."
* "GVX sets almost all of its threads to priority level 3, using the
  lower two priority levels only for a few background helper tasks.  Two
  of the five low-priority threads in fact never ran during our
  experiments."  GVX uses level 5 (not 7) for its input watcher and
  level 6 for the system daemon.
* Only ~5 distinct CVs are waited on when idle (Table 3): GVX organises
  its eternal threads into worker *pools* sharing a CV each, rather than
  Cedar's one-CV-per-sleeper style.
* Thread switching is far lower than Cedar (33-60/sec): input is polled
  and batch-drained rather than pipelined per event.
* Monitor contention is *higher* than Cedar (0.2-0.4% vs 0.01-0.1%):
  GVX handlers do real work while holding a central display monitor, so
  an input-thread preemption regularly lands mid-critical-section.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.kernel.channel import Channel
from repro.kernel.config import KernelConfig
from repro.kernel.primitives import (
    Channelreceive,
    Compute,
    Notify,
    Pause,
    Wait,
)
from repro.kernel.rng import DeterministicRng
from repro.kernel.simtime import msec, usec
from repro.runtime.pcr import World
from repro.sync.condition import ConditionVariable
from repro.sync.monitor import Monitor
from repro.workloads.base import CvSleeper, LibraryPool, StageSet


#: Table 3 GVX idle: 48 distinct MLs.
CORE_POOL_SIZE = 40
#: Keyboard brings the text machinery in (Table 3: 204 MLs).
TEXT_POOL_SIZE = 165
#: Scrolling brings the display machinery in (Table 3: 209 MLs).
DISPLAY_POOL_SIZE = 170

#: The input watcher polls and batch-drains its device (low switch rates).
INPUT_POLL_PERIOD = msec(250)
#: A pool worker's work per item it processes outside the display lock.
ITEM_WORK = usec(300)
ITEM_COMPUTE = Compute(ITEM_WORK)


class WorkerPool:
    """N eternal threads sharing one work queue and one CV.

    The GVX shape: many threads, few condition variables.  Idle workers
    wake by timeout, do a little housekeeping, and wait again (Table 2
    GVX idle: 99% of waits time out).
    """

    def __init__(
        self,
        name: str,
        *,
        workers: int,
        timeout: int,
        pool: LibraryPool,
        housekeeping_touches: int,
        work_touches: int,
        hold_lock: Monitor | None = None,
        hold_time: int = 0,
    ) -> None:
        self.name = name
        self.monitor = Monitor(f"{name}.lock")
        self.cv = ConditionVariable(self.monitor, f"{name}.cv", timeout=timeout)
        self.worker_count = workers
        self.pool = pool
        self.housekeeping_touches = housekeeping_touches
        self.work_touches = work_touches
        #: Optional long critical section taken while processing marked
        #: items — GVX repaints hold the display lock for tens of
        #: milliseconds, which is where its 0.2-0.4% contention (Table 2
        #: text) comes from: the hold spans a quantum rotation and a peer
        #: worker blocks on the lock.
        self.hold_lock = hold_lock
        self.hold_time = hold_time
        self.items: list[Any] = []
        self.processed = 0
        self._notify = Notify(self.cv)

    def post(self, item: Any):
        """Queue one work item and wake a worker (generator)."""
        yield self.monitor.enter
        try:
            self.items.append(item)
            yield self._notify
        finally:
            yield self.monitor.exit

    def worker_proc(self):
        monitor, wait = self.monitor, Wait(self.cv)
        while True:
            item = None
            yield monitor.enter
            try:
                yield wait  # timeout or a posted item
                if self.items:
                    item = self.items.pop(0)
            finally:
                yield monitor.exit
            if item is None:
                # Idle housekeeping: age caches, poll state.  Every other
                # activation does a longer sweep — GVX's 0-5 ms interval
                # share is 50-70%, lower than Cedar's.
                self._hk_flip = not getattr(self, "_hk_flip", False)
                yield Compute(msec(8) if self._hk_flip else usec(100))
                yield from self.pool.touch(self.housekeeping_touches)
            else:
                kind = item[0] if isinstance(item, tuple) else item
                if self.hold_lock is not None and kind in ("key", "echo", "repair"):
                    yield self.hold_lock.enter
                    try:
                        yield Compute(self.hold_time)
                        yield from self.pool.touch(self.work_touches)
                    finally:
                        yield self.hold_lock.exit
                else:
                    yield ITEM_COMPUTE
                    yield from self.pool.touch(self.work_touches)
                self.processed += 1


@dataclass
class GvxContext:
    rng: DeterministicRng
    pools: dict[str, LibraryPool] = field(default_factory=dict)
    worker_pools: dict[str, WorkerPool] = field(default_factory=dict)
    input_channel: Channel | None = None
    display_lock: Monitor | None = None
    #: Handlers keyed by event kind, called as ``handler(context,
    #: event)`` for a generator (an argument, not a closure over the
    #: context that holds them).
    handlers: dict[str, Any] = field(default_factory=dict)


def build_gvx_world(config: KernelConfig) -> tuple[World, GvxContext]:
    """An idle GVX world: 22 eternal threads, no forking, ever."""
    world = World(config)
    rng = DeterministicRng(config.seed).fork("gvx-world")
    context = GvxContext(rng=rng)
    context.pools["core"] = LibraryPool("gvx-core", CORE_POOL_SIZE, rng.fork("core"))
    context.pools["text"] = LibraryPool("gvx-text", TEXT_POOL_SIZE, rng.fork("text"))
    context.pools["display"] = LibraryPool(
        "gvx-display", DISPLAY_POOL_SIZE, rng.fork("display")
    )
    context.display_lock = Monitor("gvx-display-lock")
    context.input_channel = world.add_device("gvx-input")

    core = context.pools["core"]
    # Three worker pools, one CV each + two private sleepers = the 5
    # distinct idle CVs of Table 3.   14 pool workers in all.
    pool_specs = [
        ("paint", 5, msec(450), 12),
        ("layout", 5, msec(500), 11),
        ("io", 4, msec(550), 13),
    ]
    for name, workers, timeout, touches in pool_specs:
        wp = WorkerPool(
            name,
            workers=workers,
            timeout=timeout,
            pool=core,
            housekeeping_touches=touches,
            work_touches=55,
        )
        context.worker_pools[name] = wp
        for index in range(workers):
            world.add_eternal(
                wp.worker_proc, name=f"{name}-worker-{index}", priority=3
            )

    # Two private CV sleepers (cursor blink, cache ager).
    for index, period in enumerate((msec(400), msec(600))):
        sleeper = CvSleeper(
            f"gvx-sleeper-{index}", period=period, pool=core, touches=2,
            work=usec(80),
        )
        world.add_eternal(sleeper.proc, name=sleeper.name, priority=3)

    # The input watcher at priority 5 ("GVX does the opposite" of Cedar's
    # level-7 choice).
    world.add_eternal(
        _input_watcher_proc, (context,), name="gvx-input-watcher", priority=5
    )

    # Four low-priority background helpers; two are parked on channels
    # that never see traffic ("in fact never ran during our experiments").
    for index in range(2):
        world.add_eternal(
            _background_helper, (core, msec(800 + 200 * index) if index else msec(700)),
            name=f"gvx-helper-{index}", priority=1 + index,
        )
    for index in range(2):
        never = world.add_device(f"gvx-never-{index}")
        world.add_eternal(
            _parked_helper, (never,), name=f"gvx-parked-{index}",
            priority=1 + index,
        )

    # The system daemon at level 6 — thread #22.
    world.install_daemon(period=msec(500))
    return world, context


def _background_helper(pool: LibraryPool, period: int):
    """One helper sweeps in ~46 ms chunks (the GVX share of execution
    time in 45-50 ms intervals is 30-80%, Section 3); the other does
    small housekeeping."""
    sweep = period <= msec(800)
    while True:
        yield Pause(period)
        if sweep:
            yield Compute(msec(46))
        else:
            yield Compute(usec(100))
        yield from pool.touch(2)


def _parked_helper(channel: Channel):
    """Blocked forever on a device that never produces (never runs)."""
    while True:
        yield Channelreceive(channel)


def _input_watcher_proc(context: GvxContext):
    """GVX input handling: poll the device, batch-drain, handle inline.

    Draining in batches (rather than waking per event) is what keeps the
    GVX switch rates so low (Table 1: 33-60/sec).
    """
    channel = context.input_channel
    while True:
        yield Pause(INPUT_POLL_PERIOD)
        # Atomic drain: thread code runs to the next yield without
        # interleaving, so reading the channel's buffer directly is safe.
        batch = list(channel.items)
        channel.items.clear()
        for kind, event in batch:
            handler = context.handlers.get(kind)
            if handler is not None:
                yield from handler(context, event)


# ---------------------------------------------------------------------------
# Activities
# ---------------------------------------------------------------------------


def install_keyboard(world: World, context: GvxContext) -> None:
    """Typing on GVX, four keys a second: handled by eternal threads,
    zero forks."""

    context.worker_pools["paint"].hold_lock = context.display_lock
    context.worker_pools["paint"].hold_time = msec(52)
    stages = StageSet("gvx-echo", 2, wait_timeout=msec(25))
    keys = [0]

    def handle_key(context, event):
        keys[0] += 1
        if keys[0] % 2 == 0:
            yield from stages.visit_next()
        yield Compute(usec(150))
        # Echo path: hold the display lock while updating the glyph —
        # the critical section behind GVX's higher contention numbers.
        yield context.display_lock.enter
        try:
            yield Compute(msec(2))
            yield from context.pools["text"].touch(35)
        finally:
            yield context.display_lock.exit
        # Fan work out to the pools (notified wakes: Table 2's timeout
        # fraction drops from 99% to ~42% while typing).
        yield from context.worker_pools["paint"].post(("key", event))
        yield from context.worker_pools["paint"].post(("echo", event))
        yield from context.worker_pools["layout"].post(("key", event))
        yield from context.worker_pools["layout"].post(("reflow", event))
        yield from context.worker_pools["io"].post(("typescript", event))

    # Typed keys go straight at the pools' text machinery.
    for wp in context.worker_pools.values():
        wp.pool = context.pools["text"]
    context.handlers["key"] = handle_key
    world.kernel.post_every(
        msec(250), lambda k: context.input_channel.post(("key", "keystroke"))
    )


def install_mouse(world: World, context: GvxContext) -> None:
    """Mouse motion on GVX, 40 moves a second: polled, coalesced, handled
    inline."""
    moves = [0]

    def handle_motion(context, event):
        moves[0] += 1
        yield Compute(usec(40))
        yield from context.pools["core"].touch(1)
        if moves[0] % 30 == 0:
            # The occasional cursor-shape change wakes a paint worker.
            yield from context.worker_pools["paint"].post(("cursor", event))

    context.handlers["mouse"] = handle_motion
    world.kernel.post_every(
        msec(25), lambda k: context.input_channel.post(("mouse", "motion"))
    )


def install_scrolling(world: World, context: GvxContext) -> None:
    """Scrolling on GVX, two scrolls a second: long repaints under the
    display lock."""

    context.worker_pools["paint"].hold_lock = context.display_lock
    context.worker_pools["paint"].hold_time = msec(52)
    stages = StageSet("gvx-scroll", 1, wait_timeout=msec(25))
    scrolls = [0]

    def handle_scroll(context, event):
        scrolls[0] += 1
        if scrolls[0] % 2 == 0:
            yield from stages.visit_next()
        yield Compute(usec(200))
        yield context.display_lock.enter
        try:
            yield Compute(msec(4))  # bitblt under the lock
            yield from context.pools["display"].touch(130)
        finally:
            yield context.display_lock.exit
        for _ in range(2):
            yield from context.worker_pools["paint"].post(("repair", event))
        for _ in range(3):
            yield from context.worker_pools["layout"].post(("relayout", event))

    for wp in context.worker_pools.values():
        wp.pool = context.pools["display"]
        wp.work_touches = 20
    context.handlers["scroll"] = handle_scroll
    world.kernel.post_every(
        msec(500), lambda k: context.input_channel.post(("scroll", "click"))
    )


GVX_ACTIVITIES: dict[str, Any] = {
    "idle": None,
    "keyboard": install_keyboard,
    "mouse": install_mouse,
    "scrolling": install_scrolling,
}
