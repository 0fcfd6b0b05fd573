"""The synthetic Cedar world (paper Section 3, Tables 1-3).

Population, straight from the paper's description:

* "an idle Cedar system has about 35 eternal threads running in it and
  forks a transient thread once a second on average" (the idle forker
  pair: a root roughly every 2 s, "each forked thread, in turn, forks
  another transient thread");
* the Notifier at priority 7 ("keeping the system responsive"), the
  SystemDaemon and the garbage-collection daemon at priority 6, and the
  core of long-lived threads "relatively evenly distributed over the four
  'standard' priority values of 1 to 4"; level 5 is the unused level;
* eternal threads are mostly CV sleepers (Table 3 idle: 22 distinct CVs)
  plus device watchers and Pause-based helpers that never touch a CV;
* keyboard activity forks a transient per keystroke from the command
  shell; mouse motion and scrolling fork (almost) nothing but stimulate
  eternal threads; document formatting forks 3.6/s with second-generation
  children; Make and Compile barely fork but sweep enormous numbers of
  monitors (Table 3: 1296 and 2900 distinct).

Every rate constant below is pinned by a Table 1-3 target; the measured
values are recorded in EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.kernel.config import KernelConfig
from repro.kernel.primitives import Channelreceive, Compute, Fork, Pause
from repro.kernel.rng import DeterministicRng
from repro.kernel.simtime import msec, sec, usec
from repro.runtime.pcr import World
from repro.sync.queues import UnboundedQueue
from repro.workloads.base import CvSleeper, LibraryPool, StageSet


@dataclass
class CedarContext:
    """Everything an activity needs to hook into the Cedar world."""

    rng: DeterministicRng
    pools: dict[str, LibraryPool] = field(default_factory=dict)
    sleepers: list[CvSleeper] = field(default_factory=list)
    keyboard: Any = None
    mouse: Any = None
    command_queue: UnboundedQueue | None = None
    #: Handlers activities register for device events, called as
    #: ``handler(context, event)`` for a generator.  They take the
    #: context as an argument: closing over it would tie the context
    #: into a cycle through its own handler lists.
    key_handlers: list[Any] = field(default_factory=list)
    mouse_handlers: list[Any] = field(default_factory=list)
    #: Activity-specific CV populations (Table 3's distinct-CV deltas).
    stage_sets: dict[str, Any] = field(default_factory=dict)
    #: Stages the per-keystroke transient briefly waits on, if typing.
    keystroke_stages: Any = None
    #: The background transient forker; activities adjust its period.
    idle_forker: Any = None


# -- population constants (each pinned by a paper number) -------------------

#: Table 3 idle: 554 distinct MLs entered while idle.
SYSTEM_POOL_SIZE = 520
#: Extra pools activities bring in (Table 3 deltas vs idle).
TEXT_POOL_SIZE = 380
GRAPHICS_POOL_SIZE = 380
FILESYSTEM_POOL_SIZE = 754
COMPILER_POOL_SIZE = 2500

#: Table 3 idle: 22 distinct CVs waited on.
CV_SLEEPER_COUNT = 20
#: 35 eternal threads total in an idle world.
PAUSE_HELPER_COUNT = 9

#: Table 2 idle: 121 waits/sec across the CV population.
SLEEPER_PERIODS = [msec(100), msec(130), msec(165), msec(260), msec(450)]
#: Table 2 idle: 82% of waits time out — the rest are peer notifications.
PEER_STIMULATION_PROB = 0.18
#: Activity-specific monitor populations (Table 3 deltas vs idle's 554).
CURSOR_POOL_SIZE = 185
SCROLL_POOL_SIZE = 245


def build_cedar_world(config: KernelConfig) -> tuple[World, CedarContext]:
    """An idle Cedar world: 35 eternal threads, idle forker, daemons."""
    world = World(config)
    rng = DeterministicRng(config.seed).fork("cedar-world")
    context = CedarContext(rng=rng)

    context.pools["system"] = LibraryPool("system", SYSTEM_POOL_SIZE, rng.fork("system"))
    context.pools["text"] = LibraryPool("text", TEXT_POOL_SIZE, rng.fork("text"))
    context.pools["graphics"] = LibraryPool(
        "graphics", GRAPHICS_POOL_SIZE, rng.fork("graphics")
    )
    context.pools["filesystem"] = LibraryPool(
        "filesystem", FILESYSTEM_POOL_SIZE, rng.fork("fs")
    )
    context.pools["compiler"] = LibraryPool(
        "compiler", COMPILER_POOL_SIZE, rng.fork("compiler")
    )
    context.pools["cursor"] = LibraryPool(
        "cursor", CURSOR_POOL_SIZE, rng.fork("cursor")
    )
    context.pools["scroll"] = LibraryPool(
        "scroll", SCROLL_POOL_SIZE, rng.fork("scroll")
    )

    system_pool = context.pools["system"]

    # -- the CV-sleeper core, spread over priorities 1..4 (F4) -----------
    for index in range(CV_SLEEPER_COUNT):
        period = SLEEPER_PERIODS[index % len(SLEEPER_PERIODS)]
        sleeper = CvSleeper(
            f"sleeper-{index}",
            period=period,
            pool=system_pool,
            touches=1 + index % 3,  # Table 2 idle: ~414 ML-enters/sec
            # every 4th sleeper is a slow cache manager whose activation
            # runs ~7 ms — the 5-45 ms middle of the interval histogram
            # (paper: ~75% of Cedar intervals are 0-5 ms, not ~100%).
            work=msec(6) if index % 4 == 3 else usec(150 + 50 * (index % 4)),
            stimulate_peer_prob=PEER_STIMULATION_PROB,
            rng=rng.fork(f"sleeper-{index}"),
        )
        context.sleepers.append(sleeper)
        world.add_eternal(
            sleeper.proc, (context.sleepers,), name=sleeper.name,
            priority=1 + index % 4,
        )

    # -- Pause-based helpers: eternal but CV-less (Table 3 caps CVs) -----
    for index in range(PAUSE_HELPER_COUNT):
        world.add_eternal(
            _pause_helper,
            (msec(450 + 150 * (index % 3)), system_pool, 1 + index % 2),
            name=f"helper-{index}",
            priority=1 + index % 4,
        )

    # -- devices and their watchers --------------------------------------
    # "all user input is filtered through a pipeline thread that
    # preprocesses events" — keyboard and mouse merge into one stream.
    context._merged_channel = world.add_device("input")
    context.keyboard = context._merged_channel
    context.mouse = context._merged_channel
    context.command_queue = UnboundedQueue("command-shell", get_timeout=msec(250))

    world.add_eternal(
        _notifier_proc,
        (context,),
        name="Notifier",
        priority=7,  # "Cedar uses level 7 for interrupt handling"
    )
    world.add_eternal(
        _command_shell_proc,
        (context,),
        name="CommandShell",
        priority=4,
    )

    # -- daemons -----------------------------------------------------------
    gc_daemon = CvSleeper(
        "GCDaemon",
        period=msec(400),
        pool=system_pool,
        touches=4,
        work=msec(1),
    )
    context.sleepers.append(gc_daemon)
    world.add_eternal(gc_daemon.proc, name="GCDaemon", priority=6)
    world.install_daemon(period=msec(500))  # SystemDaemon, priority 6

    # -- the idle forker ----------------------------------------------------
    # "An idle Cedar system forks a transient thread about once every 2
    # seconds.  Each forked thread, in turn, forks another transient
    # thread."  Activities that keep the user busy suppress it — that is
    # how "thread-forking activity [decreases] by more than a factor of
    # 3" under compute-intensive load.
    context.idle_forker = IdleForker()
    world.add_eternal(
        context.idle_forker.proc, (context,), name="IdleForker", priority=1
    )

    # -- the scavenger ------------------------------------------------------
    # Background work chunked at roughly the quantum: the source of the
    # second execution-interval peak "around 45 milliseconds" and of the
    # "20% to 50% of the total execution time ... accumulated by threads
    # running for periods of 45 to 50 milliseconds" (Section 3).
    # Priority 4: equal-priority wakes do not preempt, so the 46 ms
    # sweep usually completes as one unbroken execution interval.
    world.add_eternal(_scavenger_proc, (context,), name="Scavenger", priority=4)

    return world, context


def _scavenger_proc(context: "CedarContext"):
    while True:
        yield Pause(msec(400))
        yield Compute(msec(46))
        yield from context.pools["system"].touch(3)


class IdleForker:
    """The background transient-forking loop; period is adjustable so an
    activity can model the user not being idle at the shell.  The
    context, which lists the forker, is a thread argument, so the two
    do not point at each other."""

    def __init__(self, period: int = sec(2)) -> None:
        self.period = period

    def proc(self, context: "CedarContext"):
        while True:
            yield Pause(self.period)
            yield Fork(
                _idle_transient, (context,), name="idle-transient",
                priority=2, detached=True,
            )


def _pause_helper(period: int, pool: LibraryPool, touches: int):
    """A CV-less eternal helper (page cleaner, stat poller, ...)."""
    while True:
        yield Pause(period)
        yield Compute(usec(120))
        yield from pool.touch(touches)


def _notifier_proc(context: CedarContext):
    """The keyboard-and-mouse watching process: "a critical, high
    priority thread" that defers almost everything.

    Activities post ``("key", event)`` / ``("mouse", event)`` tuples onto
    the merged input device.
    """
    while True:
        source, event = yield Channelreceive(context._merged_channel)
        yield Compute(usec(30))  # notice what work needs to be done
        handlers = (
            context.key_handlers if source == "key" else context.mouse_handlers
        )
        for handler in handlers:
            yield from handler(context, event)
        if source == "key":
            # Cooked keystrokes go to the command shell's serializer.
            yield from context.command_queue.put(event)


def _command_shell_proc(context: CedarContext):
    """The command shell: waits on its queue, forks a transient per
    keystroke ("Keyboard activity causes a transient thread to be forked
    by the command-shell thread for every keystroke")."""
    while True:
        event = yield from context.command_queue.get()
        if event is None:
            continue  # timeout: nothing typed
        yield Compute(usec(80))
        yield Fork(
            _keystroke_transient,
            args=(context, event),
            name="key-transient",
            priority=4,
            detached=True,
        )


def _keystroke_transient(context: CedarContext, event: Any):
    """Per-keystroke transient work: echo bookkeeping across the text and
    system libraries (Table 2 keyboard: ~2550 ML-enters/sec)."""
    yield Compute(usec(400))
    yield from context.pools["text"].touch(380)
    yield from context.pools["system"].touch(80)
    if context.keystroke_stages is not None:
        yield from context.keystroke_stages.visit_next()
        yield from context.keystroke_stages.visit_next()


def _idle_transient(context: CedarContext):
    yield Compute(usec(500))
    yield from context.pools["system"].touch(5)
    yield Fork(
        _idle_transient_child, (context,), name="idle-transient-child",
        priority=2, detached=True,
    )


def _idle_transient_child(context: CedarContext):
    yield Compute(usec(300))
    yield from context.pools["system"].touch(3)


# ---------------------------------------------------------------------------
# Activities (the Table 1-3 benchmark rows)
# ---------------------------------------------------------------------------


def _stimulate_some(context: CedarContext, count: int):
    """Wake ``count`` randomly chosen eternal sleepers ("both keyboard
    activity and mouse motion cause significant increases in activity by
    eternal threads")."""
    for _ in range(count):
        sleeper = context.rng.choice(context.sleepers)
        yield from sleeper.stimulate()


def install_keyboard(world: World, context: CedarContext) -> None:
    """Typing: a keystroke every 250 ms (four a second).

    Targets (Tables 1-3): 5.0 forks/s, 269 switches/s, 185 waits/s at 48%
    timeouts, 2557 ML-enters/s, 32 CVs, 918 MLs.
    """
    stages = StageSet("echo", 10, wait_timeout=msec(25))
    context.stage_sets["echo"] = stages

    def handler(context, event):
        yield Compute(usec(100))
        yield from context.pools["text"].touch(30)
        yield from _stimulate_some(context, 24)

    context.key_handlers.append(handler)
    context.keystroke_stages = stages
    world.kernel.post_every(
        msec(250), lambda k: context._merged_channel.post(("key", "keystroke"))
    )


def install_mouse(world: World, context: CedarContext) -> None:
    """Mouse motion, 40 moves a second: no forks, but eternal-thread
    activity rises.

    Targets: 1.0 forks/s (just the idle forker), 191 switches/s, 163
    waits/s at 58% timeouts, 1025 ML-enters/s, 26 CVs, 734 MLs.
    """
    stages = StageSet("cursor", 4, wait_timeout=msec(25))
    context.stage_sets["cursor"] = stages
    moves = [0]

    def handler(context, event):
        moves[0] += 1
        yield Compute(usec(60))
        yield from context.pools["cursor"].touch(12)
        yield from _stimulate_some(context, 2 if moves[0] % 3 == 0 else 1)
        if moves[0] % 10 == 0:
            yield from stages.visit_next()

    context.mouse_handlers.append(handler)
    world.kernel.post_every(
        msec(25), lambda k: context._merged_channel.post(("mouse", "motion"))
    )


def install_scrolling(world: World, context: CedarContext) -> None:
    """Window scrolling, two scrolls a second: heavy repaint monitor
    traffic, 0.3 transients per scroll ("Scrolling a text window 10 times
    causes 3 transient threads to be forked, one of which is the child of
    one of the other transients").  The user is busy, so idle forking is
    suppressed.

    Targets: 0.7 forks/s, 172 switches/s, 115 waits/s at 69% timeouts,
    2032 ML-enters/s, 30 CVs, 797 MLs.
    """
    context.idle_forker.period = sec(20)
    stages = StageSet("scroll", 8, wait_timeout=msec(25))
    context.stage_sets["scroll"] = stages
    scroll_count = [0]

    def handler(context, event):
        scroll_count[0] += 1
        yield Compute(msec(2))  # repaint work
        yield from context.pools["scroll"].touch(700)
        yield from _stimulate_some(context, 5)
        yield from stages.visit_next()
        yield from stages.visit_next()
        if scroll_count[0] % 5 == 0:
            # every 5th scroll forks a repaint transient...
            grandchild = scroll_count[0] % 10 == 0
            yield Fork(
                _scroll_transient, (context, grandchild),
                name="scroll-transient", priority=3, detached=True,
            )

    context.mouse_handlers.append(handler)
    world.kernel.post_every(
        msec(500),
        lambda k: context._merged_channel.post(("mouse", "scroll-click")),
    )


def _scroll_transient(context: CedarContext, fork_child: bool):
    yield Compute(msec(1))
    yield from context.pools["scroll"].touch(10)
    if fork_child:
        yield Fork(
            _scroll_child, (context,), name="scroll-child",
            priority=3, detached=True,
        )


def _scroll_child(context: CedarContext):
    yield Compute(usec(500))
    yield from context.pools["scroll"].touch(5)


def install_formatting(world: World, context: CedarContext) -> None:
    """Document formatting: a worker forking transients (3.6/s total)
    with second-generation children and heavy text-library traffic.

    Targets: 3.6 forks/s, 171 switches/s, 130 waits/s at 72% timeouts,
    2739 ML-enters/s, 46 CVs, 1060 MLs.
    """
    context.idle_forker.period = sec(8)
    stages = StageSet("format", 24, wait_timeout=msec(30))
    context.stage_sets["format"] = stages

    def formatter():
        rng = context.rng.fork("formatter")
        while True:
            # Format one page: a long compute chunk (the 45-50 ms
            # execution-interval peak) plus monitor traffic.
            yield Compute(msec(30))
            yield from context.pools["text"].touch(400)
            yield from context.pools["cursor"].touch(20)  # fonts/metrics
            yield from _stimulate_some(context, 3)
            yield from stages.visit_next()
            # first-generation transients fork second-generation children
            # ("third generation forked threads do not occur").
            if rng.chance(0.3):
                yield Fork(
                    _formatting_transient, (context, rng.randint(1, 2)),
                    name="fmt-transient", priority=3, detached=True,
                )
            yield Pause(msec(100))

    world.add_worker(formatter, name="formatter-worker", priority=3)


def _formatting_transient(context: CedarContext, children: int):
    yield Compute(msec(2))
    yield from context.pools["text"].touch(15)
    for _ in range(children):
        yield Fork(
            _formatting_child, (context,), name="fmt-child",
            priority=3, detached=True,
        )


def _formatting_child(context: CedarContext):
    yield Compute(msec(1))
    yield from context.pools["text"].touch(8)


def install_previewing(world: World, context: CedarContext) -> None:
    """Document previewing: moderate transient forking, graphics-heavy;
    "the previewer's transient threads simply run to completion".

    Targets: 1.6 forks/s, 222 switches/s, 157 waits/s at 56% timeouts,
    1335 ML-enters/s, 32 CVs, 938 MLs.
    """
    context.idle_forker.period = sec(8)
    stages = StageSet("preview", 10, wait_timeout=msec(25))
    context.stage_sets["preview"] = stages

    def previewer():
        rng = context.rng.fork("previewer")
        while True:
            yield Compute(msec(15))
            yield from context.pools["graphics"].touch(170)
            yield from _stimulate_some(context, 8)
            yield from stages.visit_next()
            if rng.chance(0.3):
                yield Fork(
                    _preview_transient, (context,),
                    name="preview-transient", priority=3, detached=True,
                )
            yield Pause(msec(150))

    world.add_worker(previewer, name="previewer-worker", priority=3)


def _preview_transient(context: CedarContext):
    yield Compute(msec(2))
    yield from context.pools["graphics"].touch(12)


def install_make(world: World, context: CedarContext) -> None:
    """Make: "the command-shell thread gets used as the main worker
    thread" — no forks except GC/finalization transients; sweeps the
    filesystem library checking timestamps.

    Targets: 0.3 forks/s, 170 switches/s, 158 waits/s at 61% timeouts,
    2218 ML-enters/s, 24 CVs, 1296 MLs.
    """
    context.idle_forker.period = sec(20)
    stages = StageSet("make", 2, wait_timeout=msec(25))
    context.stage_sets["make"] = stages
    cycles = [0]

    def make_worker():
        rng = context.rng.fork("make")
        while True:
            cycles[0] += 1
            yield Compute(msec(8))
            yield from context.pools["filesystem"].touch(240)
            yield from context.pools["system"].touch(20)
            yield from _stimulate_some(context, 6)
            if cycles[0] % 2 == 0:
                yield from stages.visit_next()
            if rng.chance(0.02):  # occasional finalization transient
                yield Fork(
                    _finalization_transient, (context,),
                    name="finalizer-transient", priority=2, detached=True,
                )
            yield Pause(msec(100))

    world.add_worker(make_worker, name="make-worker", priority=4)


def _finalization_transient(context: CedarContext):
    yield Compute(msec(1))
    yield from context.pools["system"].touch(6)


def install_compile(world: World, context: CedarContext) -> None:
    """Compile: long compute bursts, a sweep over the compiler library's
    per-module monitors, almost no forking, and the most timeout-driven
    waiting of any activity.

    Targets: 0.3 forks/s, 135 switches/s, 119 waits/s at 82% timeouts,
    1365 ML-enters/s, 36 CVs, 2900 MLs.
    """
    context.idle_forker.period = sec(20)
    stages = StageSet("compile", 14, wait_timeout=msec(30))
    context.stage_sets["compile"] = stages

    def compile_worker():
        rng = context.rng.fork("compile")
        while True:
            yield Compute(msec(45))  # the 45-50 ms interval peak
            yield from context.pools["compiler"].touch(160)
            yield from context.pools["system"].touch(10)
            yield from stages.visit_next()
            if rng.chance(0.02):
                yield Fork(
                    _finalization_transient, (context,),
                    name="finalizer-transient", priority=2, detached=True,
                )
            yield Pause(msec(50))

    world.add_worker(compile_worker, name="compile-worker", priority=2)


# ---------------------------------------------------------------------------
# Registry used by the analysis layer and benches
# ---------------------------------------------------------------------------

CEDAR_ACTIVITIES: dict[str, Any] = {
    "idle": None,
    "keyboard": install_keyboard,
    "mouse": install_mouse,
    "scrolling": install_scrolling,
    "formatting": install_formatting,
    "previewing": install_previewing,
    "make": install_make,
    "compile": install_compile,
}
