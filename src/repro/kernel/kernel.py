"""The simulated PCR kernel: event loop and trap handlers.

This module implements the thread model of Section 2 of the paper as a
deterministic discrete-event simulation:

* threads are Python generators; they yield :mod:`repro.kernel.primitives`
  traps and the kernel resumes them with results;
* time is an integer microsecond clock that advances only between events,
  so every scheduling decision is exactly reproducible;
* the scheduler is strict-priority with round-robin at each level, a
  configurable timeslice (PCR: 50 ms), and preemption "even if [the
  running thread] holds monitor locks";
* CV timeouts and sleeps wake at scheduler ticks, giving them the
  timeslice granularity Section 6.3 analyses;
* NOTIFY follows either the paper's deferred-rescheduling fix or the
  original immediate behaviour that produced spurious lock conflicts
  (Section 6.1), selected by ``KernelConfig.notify_semantics``.

On a uniprocessor run (``ncpus=1``, the default and the configuration the
paper studies most) the simulation is sequentially consistent by
construction; ``ncpus > 1`` models a multiprocessor at event granularity.
"""

from __future__ import annotations

import enum
import heapq
import inspect
import itertools
import traceback
import weakref
from typing import Any, Callable

from repro.kernel import instrumentation as instr
from repro.kernel.channel import Channel
from repro.kernel.config import (
    DEFAULT_PRIORITY,
    FORK_FAILURE_RAISE,
    MAX_PRIORITY,
    MIN_PRIORITY,
    NOTIFY_DEFERRED,
    WAKES_AT_LEAST_ONE,
    KernelConfig,
)
from repro.kernel.errors import (
    Deadlock,
    ForkFailed,
    JoinProtocolError,
    KernelUsageError,
    MonitorProtocolError,
    ThreadKilled,
    UncaughtThreadError,
)
from repro.kernel.events import EventHeap
from repro.kernel.instrumentation import Tracer
from repro.kernel.memory import create_memory_model
from repro.kernel.primitives import (
    Annotate,
    Broadcast,
    Channelreceive,
    Compute,
    Detach,
    DirectedYield,
    Enter,
    Exit,
    Fence,
    Fork,
    GetSelf,
    GetTime,
    Join,
    MemRead,
    MemWrite,
    Notify,
    Pause,
    SetPriority,
    Wait,
    Yield,
    YieldButNotToMe,
)
from repro.kernel.scheduler import Cpu, Scheduler, first_choice
from repro.kernel.stats import GlobalStats, ThreadRecord
from repro.kernel.rng import DeterministicRng
from repro.kernel.thread import SimThread, ThreadState


class _Outcome(enum.Enum):
    """What a trap handler did with the running thread."""

    CONTINUE = "continue"  # handled instantly; keep resuming the generator
    BURN = "burn"          # thread has pending_compute to burn on the CPU
    SUSPEND = "suspend"    # thread left the CPU (blocked/yielded/finished)


#: Guard against zero-cost scheduling livelock (e.g. a thread that yields
#: in a tight loop with switch_cost=0): maximum dispatches at one instant.
_MAX_DISPATCHES_PER_INSTANT = 100_000


#: Every live Kernel, so test harnesses can shut down abandoned ones
#: (closing thread generators cleanly) without tracking them by hand.
_LIVE_KERNELS: "weakref.WeakSet" = weakref.WeakSet()


def shutdown_all_kernels() -> None:
    """Shut down every kernel still alive (test-teardown hook)."""
    for kernel in list(_LIVE_KERNELS):
        kernel.shutdown()


def _close_all_bodies(threads: dict) -> None:
    """GC-time fallback for kernels never explicitly shut down."""
    for thread in threads.values():
        if thread.state is not ThreadState.DONE:
            _drain_close(thread.body)


def _unlink_closed(thread: SimThread) -> None:
    """Cut a closed thread out of every monitor, CV and channel it was
    tied to, and drop any value it never received.  A monitor left
    naming a dead owner, or a queue left holding it, would tie the
    thread into a reference cycle with the world around it."""
    state = thread.state
    if state is ThreadState.WAITING_CV:
        thread.blocked_on.waiters.remove(thread)
    elif state is ThreadState.BLOCKED_MONITOR:
        thread.blocked_on.entry_queue.remove(thread)
    for monitor in thread.held_monitors:
        monitor.owner = None
    thread.held_monitors.clear()
    thread.blocked_on = None
    thread.pending_send = None
    thread.pending_channel = None


class _Every:
    """A :meth:`Kernel.post_every` event: run the action, then push
    itself one period on.  A closure that named itself would be a
    reference cycle holding whatever the action refers to."""

    __slots__ = ("period", "action")

    def __init__(self, period: int, action: Callable[["Kernel"], None]) -> None:
        self.period = period
        self.action = action

    def __call__(self, kernel: "Kernel") -> None:
        self.action(kernel)
        kernel.events.push(kernel.now + self.period, self)


def _drain_close(body: Any) -> None:
    """Force-close a suspended thread generator.

    Thread bodies legitimately yield Exit traps from ``finally`` blocks;
    during ``close()`` those yields surface as "generator ignored
    GeneratorExit".  We resume the generator with None (the trap's normal
    result) and retry until the frame unwinds.
    """
    for _ in range(64):
        try:
            body.close()
            return
        except RuntimeError:
            try:
                body.send(None)
            except BaseException:  # noqa: BLE001 - teardown of dead sim
                return
    raise RuntimeError("thread generator would not unwind during shutdown")


class Kernel:
    """A simulated machine: scheduler, clock, threads, devices."""

    def __init__(self, config: KernelConfig | None = None) -> None:
        self.config = config or KernelConfig()
        self.now = 0
        self.rng = DeterministicRng(self.config.seed)
        #: Schedule-exploration seam (repro.explore), or None; only
        #: :meth:`decide` consults it.
        self.controller = self.config.schedule_controller
        #: Per-site decision counts (see :meth:`decide`).
        self._decision_seqs: dict[str, int] = {}
        self.scheduler = Scheduler(
            self.config.ncpus,
            rng=self.rng.fork("scheduler"),
            decide=self.decide,
            policy=self.config.scheduler_policy,
        )
        self.events = EventHeap()
        self.tracer = Tracer(self.config.trace)
        #: Whether events are recorded, read once here so hot paths skip
        #: even argument construction when tracing is off (the common
        #: case).  The golden-schedule tests pin that traced runs still
        #: record the identical event stream.
        self._tracing = self.tracer.enabled
        self.stats = GlobalStats()
        self.threads: dict[int, SimThread] = {}
        self._tid_counter = itertools.count(1)
        #: Timed waiters: (deadline, seq, thread, epoch, kind); woken lazily
        #: at scheduler ticks (timeouts have timeslice granularity).
        self._timed: list[tuple[int, int, SimThread, int, str]] = []
        self._timed_seq = itertools.count()
        #: Threads blocked in FORK awaiting thread resources (§5.4 "wait").
        self._fork_waiters: list[tuple[SimThread, Fork]] = []
        #: Uncaught errors of threads nobody joined.
        self.pending_thread_errors: list[UncaughtThreadError] = []
        self._dispatches_this_instant = 0
        self._instant = -1
        #: The last instant that ticked (0: time 0 never ticks), so an
        #: instant the loop revisits ticks only once.
        self._last_tick = 0

        self.memory = create_memory_model(self.config, self.rng.fork("memory"))
        #: Fixed per kernel: only store-buffer memories have fences to
        #: make and drains to offer, so under ``sc`` the traps skip both.
        self._buffered = self.memory.buffered
        #: Passive race detector (Eraser lockset + happens-before), or
        #: None.  Imported lazily: analysis depends on the kernel, not
        #: vice versa, except through this optional observer.
        self.race_detector = None
        if self.config.race_detection:
            from repro.analysis.races import RaceDetector

            self.race_detector = RaceDetector(self.tracer)
        #: Seeded fault injector (repro.analysis.faults), or None.  Draws
        #: from a forked RNG stream, so a plan with all rates at zero is
        #: schedule-identical to no plan at all.
        self.faults = None
        if self.config.fault_plan is not None:
            from repro.analysis.faults import FaultInjector

            self.faults = FaultInjector(
                self, self.config.fault_plan, self.rng.fork("faults")
            )
        #: Passive waits-for watchdog (repro.analysis.watchdog), or None.
        self.watchdog = None
        if self.config.watchdog:
            from repro.analysis.watchdog import Watchdog

            self.watchdog = Watchdog(self)
        _LIVE_KERNELS.add(self)
        # If the kernel is garbage-collected without shutdown(), close the
        # thread generators cleanly so their monitor-releasing `finally`
        # blocks do not surface as "ignored GeneratorExit" noise.
        self._finalizer = weakref.finalize(
            self, _close_all_bodies, self.threads
        )

    # ------------------------------------------------------------------
    # Public host API
    # ------------------------------------------------------------------

    def fork_root(
        self,
        proc: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        *,
        name: str | None = None,
        priority: int = DEFAULT_PRIORITY,
        role: str | None = None,
        detached: bool = True,
    ) -> SimThread:
        """Create a generation-0 thread from host (non-thread) context.

        Root threads default to detached because the host cannot JOIN
        (JOIN is a trap available only to simulated threads).
        """
        thread = self._create_thread(
            proc, args, kwargs or {}, name=name, priority=priority,
            parent=None, role=role, detached=detached,
        )
        self.scheduler.make_ready(thread)
        return thread

    def channel(self, name: str) -> Channel:
        """Create a device channel bound to this kernel."""
        return Channel(name).bind(self)

    def post_at(self, when: int, action: Callable[["Kernel"], None]) -> None:
        """Run ``action(kernel)`` at absolute sim time ``when``."""
        if when < self.now:
            raise ValueError(f"cannot post into the past ({when} < {self.now})")
        self.events.push(when, action)

    def post_every(
        self,
        period: int,
        action: Callable[["Kernel"], None],
        *,
        start: int | None = None,
    ) -> None:
        """Run ``action`` every ``period`` µs, forever, starting at
        ``start`` (default: one period from now)."""
        if period <= 0:
            raise ValueError("period must be positive")
        first = start if start is not None else self.now + period
        self.post_at(first, _Every(period, action))  # a past ``start`` raises

    def run_for(self, duration: int, **kwargs: Any) -> int:
        """Advance the simulation by ``duration`` µs."""
        return self.run_until(self.now + duration, **kwargs)

    def run_until(
        self,
        t_end: int,
        *,
        raise_on_deadlock: bool = True,
        stop_when: Callable[["Kernel"], bool] | None = None,
    ) -> int:
        """Advance the simulation to ``t_end`` µs (absolute).

        Returns the final clock value.  Raises :class:`Deadlock` if live
        threads exist but nothing can ever run again.  At the end of the
        run, raises the oldest pending uncaught error of a thread nobody
        JOINed (one per run; the next run raises the next).

        ``stop_when`` is evaluated after each processed instant (post
        watchdog sweep); returning True ends the run early *without*
        fast-forwarding the clock to ``t_end`` — the exploration driver
        uses it to abandon dead schedules the moment a deadlock is
        confirmed instead of grinding ticks to the horizon.  It sees
        every instant a burst ends at because passing it turns inline
        burning off (see ``_burn_limit``): the loop then completes each
        burst itself, which makes ``stop_when=lambda k: False`` the
        reference path the inline one must match.

        Each pass does only the work due at its instant: it asks the
        side-effect-free ``_tick_needed`` only when the next quantum
        boundary comes first, pops events only when the heap's head is
        due, and preempts each runner the best ready priority outranks.
        """
        if t_end < self.now:
            raise ValueError(f"cannot run backwards ({t_end} < {self.now})")
        horizon = t_end if stop_when is None else None
        stopped = False
        scheduler = self.scheduler
        cpus = scheduler.cpus
        heap = self.events._heap  # each pass peeks at its head in place
        quantum = self.config.quantum
        while True:
            self._dispatch_idle_cpus()
            t_next = heap[0][0] if heap else None
            for cpu in cpus:
                busy_until = cpu.busy_until
                if busy_until is not None and (t_next is None or busy_until < t_next):
                    t_next = busy_until
            boundary = (self.now // quantum + 1) * quantum
            if (t_next is None or boundary < t_next) and self._tick_needed():
                t_next = boundary
            if t_next is None:
                if raise_on_deadlock and self._is_deadlocked():
                    raise self._make_deadlock()
                break
            if t_next > t_end:
                break
            self.now = t_next
            self._complete_due_bursts(horizon)
            now = self.now  # an inline burn may have moved the clock
            if now % quantum == 0 and now != self._last_tick:
                self._on_tick()
            if heap and heap[0][0] <= now:
                for action in self.events.pop_due(now):
                    action(self)
            if self.watchdog is not None:
                self.watchdog.maybe_check(now)
            if scheduler.best_ready:  # else nothing can preempt
                for cpu in cpus:
                    thread = cpu.current
                    if thread is not None and scheduler.best_ready > thread.priority:
                        self._maybe_preempt(cpu, thread)
            if stop_when is not None and stop_when(self):
                stopped = True
                break
        if not stopped:
            self.now = max(self.now, t_end)
        self._propagate_errors()
        return self.now

    def shutdown(self) -> None:
        """Tear the simulation down: force-close every live thread body.

        After shutdown the kernel must not be run again.  Idempotent.
        Called automatically by test harnesses via
        :func:`shutdown_all_kernels` so abandoned generators do not emit
        "ignored GeneratorExit" noise at garbage collection.

        Stats, threads (errors included) and observer reports stay
        readable.  What would tie the kernel into a reference cycle
        goes: pending events, parked FORKs, the closed threads' monitor,
        CV and channel links, and the locals of crashed threads' frames.
        """
        for thread in self.threads.values():
            if thread.alive:
                _drain_close(thread.body)
                _unlink_closed(thread)
                thread.state = ThreadState.DONE
                thread.ended_at = self.now
                # Reconcile the live-thread accounting so post-shutdown
                # snapshots balance (created == finished + live, stacks
                # returned), but keep force-killed threads out of
                # ``lifetimes`` — they did not end naturally.
                self.stats.threads_finished += 1
                self.stats.live_threads -= 1
                self.stats.stack_bytes -= self.config.stack_reservation
            if thread.error is not None:
                # The error and its traceback stay readable, but the
                # body's frames let go of their locals, which may reach
                # this kernel (a world's device channel, say).
                traceback.clear_frames(thread.error.__traceback__)
        self.pending_thread_errors.clear()
        # Pending events and parked FORKs hold workload callables, which
        # may reach this kernel again (a device channel, say).
        self.events.clear()
        self._fork_waiters.clear()
        self._finalizer.detach()  # explicit shutdown supersedes GC cleanup
        _LIVE_KERNELS.discard(self)
        # The scheduler and the fault injector call back into the kernel.
        # Dropping those references, with the closed threads' links
        # cleared above, leaves no reference cycle among the kernel's
        # own parts: unless a world's objects hold it in one,
        # refcounting frees it, not the collector.
        self.scheduler.decide = None
        if self.faults is not None:
            self.faults.kernel = None

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def decide(
        self,
        site: str,
        n: int,
        default: Callable[[int], int],
        candidates: Any = (),
    ) -> int:
        """Resolve one nondeterministic choice among ``n`` alternatives.

        Every choice the paper leaves open goes through here: the
        scheduler's ``sched.*`` sites, the at-least-one NOTIFY's extra
        wake, store-buffer drains and every fault-plan sample.  A site
        with one alternative is not a decision: it returns 0 and is not
        counted.  Otherwise the decision gets its site's next sequence
        number ``seq``, and the result is ``default(seq)`` unless the
        schedule controller answers (forcing, choosing or recording it).
        ``candidates`` are what is chosen among, or the context of a
        yes/no decision; only the controller names them, so a run
        without one builds no labels.
        """
        if n <= 1:
            return 0
        seqs = self._decision_seqs
        seq = seqs.get(site, 0)
        seqs[site] = seq + 1
        if self.controller is None:
            return default(seq)
        return self.controller.resolve(site, seq, n, default, candidates, self.now)

    # ------------------------------------------------------------------
    # Clock and dispatch machinery
    # ------------------------------------------------------------------

    def _tick_needed(self) -> bool:
        """Ticks matter only when a timeout can fire or rotation/donation
        expiry can change a scheduling decision.  Skipping irrelevant
        ticks is a pure optimisation: a lone runner is never rotated."""
        if self._timed:
            return True
        # Tick-driven faults sample the world every quantum, and a FORK
        # feigned-failed into the wait queue is released at the next tick,
        # so fault injection keeps the clock ticking through idle spells.
        if self.faults is not None and (
            self.faults.plan.wants_ticks or self._fork_waiters
        ):
            return True
        if not self.scheduler.best_ready:
            return False
        return any(cpu.current is not None for cpu in self.scheduler.cpus)

    def _on_tick(self) -> None:
        """Scheduler tick: expire donations, fire timeouts, round-robin."""
        self._last_tick = self.now
        self.stats.ticks += 1
        if self._tracing:
            self.tracer.record(self.now, instr.CAT_TICK, "tick", "-")
        if self.faults is not None:
            self.faults.on_tick()
            if self._fork_waiters:
                # A feigned resource exhaustion clears by the next tick
                # (capacity permitting), so forced fork-waits are bounded.
                self._release_fork_waiter()
        self.scheduler.clear_donations()
        self._wake_due_timed()
        fair_share = self.scheduler.policy == "fair_share"
        for cpu in self.scheduler.cpus:
            thread = cpu.current
            if thread is None:
                continue
            best = self.scheduler.highest_ready_priority()
            if best is None:
                continue
            # Strict policy: rotate among >= priority.  Fair share: every
            # tick is a fresh lottery, so any competition rotates.
            if fair_share or best >= thread.priority:
                self._interrupt_burst(cpu)
                self._off_cpu(cpu, thread)
                self.scheduler.make_ready(thread)

    def _wake_due_timed(self) -> None:
        while self._timed and self._timed[0][0] <= self.now:
            _deadline, _seq, thread, epoch, kind = heapq.heappop(self._timed)
            if thread.wait_epoch != epoch or not thread.alive:
                continue  # already woken by notify/post; entry is stale
            if kind == "cv":
                self._timeout_cv_wait(thread)
            elif kind == "sleep":
                thread.pending_send = None
                self.scheduler.make_ready(thread)
                if self._tracing:
                    self.tracer.record(
                        self.now, instr.CAT_SLEEP, "wake", thread.name
                    )
            elif kind == "channel":
                channel: Channel = thread.blocked_on
                channel.waiters.remove(thread)
                self.stats.channel_timeouts += 1
                thread.pending_send = None
                self.scheduler.make_ready(thread)
                if self._tracing:
                    self.tracer.record(
                        self.now, instr.CAT_CHANNEL, "timeout",
                        thread.name, channel.name,
                    )
            else:  # pragma: no cover - exhaustive kinds
                raise AssertionError(f"unknown timed-wait kind {kind!r}")

    def _timeout_cv_wait(self, thread: SimThread) -> None:
        cv = thread.blocked_on
        cv.waiters.remove(thread)
        cv.timeouts += 1
        self.stats.cv_timeouts += 1
        thread.stats.cv_timeouts += 1
        thread.wake_was_notify = False
        thread.pending_send = False  # WAIT returns False on timeout
        thread.resume_action = ("reacquire", cv.monitor, False)
        self.scheduler.make_ready(thread)
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_CV, "timeout", thread.name, cv.name
            )

    def _dispatch_idle_cpus(self) -> None:
        """Give each idle CPU the thread ``take_next`` picks, skipping one
        with no donee while nothing is ready: there ``take_next`` returns
        None and changes nothing (the empty lottery numbers no decision).
        A CPU with a donee still asks, which clears a spent donation."""
        if self.now != self._instant:
            self._instant = self.now
            self._dispatches_this_instant = 0
        scheduler = self.scheduler
        progress = True
        while progress:
            progress = False
            for cpu in scheduler.cpus:
                if cpu.current is not None or (
                    not scheduler.best_ready and cpu.donee is None
                ):
                    continue
                thread = scheduler.take_next(cpu)
                if thread is None:
                    continue
                self._dispatches_this_instant += 1
                if self._dispatches_this_instant > _MAX_DISPATCHES_PER_INSTANT:
                    raise KernelUsageError(
                        "scheduling livelock: >100000 dispatches without "
                        "simulated time advancing (a thread is probably "
                        "yielding in a loop with zero switch cost)"
                    )
                self._run_on(cpu, thread)
                progress = True

    def _run_on(self, cpu: Cpu, thread: SimThread) -> None:
        """Put a thread on a CPU and push it forward."""
        thread.state = ThreadState.RUNNING
        if cpu.last_thread is not thread:
            self.stats.switches += 1
            # Model the switch cost as a CPU burst the incoming thread
            # burns before its own work; keeps multiprocessor time sane.
            if self.config.switch_cost:
                thread.pending_compute += self.config.switch_cost
        # Traced for every dispatch (not just switches) so consumers can
        # pair each dispatch with its offcpu event.
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_SWITCH, "dispatch", thread.name, cpu.index
            )
        cpu.current = thread
        cpu.last_thread = thread
        thread.last_dispatched = self.now
        thread.stats.dispatches += 1
        self.stats.dispatches += 1
        if thread.pending_compute > 0:
            cpu.burst_start = self.now
            cpu.busy_until = self.now + thread.pending_compute
            return
        self._continue_thread(cpu, thread)

    def _complete_due_bursts(self, horizon: int | None) -> None:
        for cpu in self.scheduler.cpus:
            if cpu.busy_until == self.now:  # None on an idle CPU
                thread = cpu.current
                thread.pending_compute = 0
                cpu.busy_until = None
                cpu.burst_start = None
                self._continue_thread(cpu, thread, horizon)

    def _continue_thread(
        self, cpu: Cpu, thread: SimThread, horizon: int | None = None
    ) -> None:
        """Advance a thread that has finished burning CPU."""
        if thread.resume_action is not None:
            if not self._attempt_reacquire(cpu, thread):
                return  # blocked on the monitor entry queue
            if thread.pending_compute > 0:
                # Reacquisition charged monitor_overhead: burn it first.
                cpu.burst_start = self.now
                cpu.busy_until = self.now + thread.pending_compute
                return
        self._resume(cpu, thread, horizon)

    def _attempt_reacquire(self, cpu: Cpu, thread: SimThread) -> bool:
        """Monitor (re)acquisition after a wake — post-CV-wake, or after
        a monitor exit made this queued thread runnable to compete.

        ``thread.pending_send`` was set when the thread blocked (None for
        a plain Enter, the wait result for a CV wake) and is preserved
        across failed attempts.
        """
        _kind, monitor, was_notify = thread.resume_action
        thread.resume_action = None
        if monitor.owner is None:
            monitor.owner = thread
            thread.held_monitors.append(monitor)
            if self.race_detector is not None:
                self.race_detector.on_acquire(thread, monitor)
            # Charge the same lock-bookkeeping cost an uncontended Enter
            # pays; without this a contended acquisition would be cheaper.
            if self.config.monitor_overhead:
                thread.pending_compute += self.config.monitor_overhead
            return True
        # The monitor is held: this trip through the scheduler was useless.
        if was_notify:
            self.stats.spurious_conflicts += 1
            if self._tracing:
                self.tracer.record(
                    self.now, instr.CAT_MONITOR, "spurious",
                    thread.name, monitor.name,
                )
        self._block_current(cpu, thread, ThreadState.BLOCKED_MONITOR, monitor)
        monitor.enqueue(thread)
        return False

    def _resume(self, cpu: Cpu, thread: SimThread, horizon: int | None) -> None:
        """Drive the generator through zero-time traps until it blocks,
        yields, finishes, or starts a CPU burst the loop must complete.

        ``horizon`` is the ``t_end`` of a ``run_until`` without
        ``stop_when``, passed on the burst-completion path only.  With
        it, a burst that ends by the burn limit (``_burn_limit``) is
        burned here: the clock jumps to its end and the same generator
        runs on.  Any other burst is left on the CPU (``busy_until``)
        for the loop to complete.

        The limit is computed at the first burst and kept for the bursts
        after it until an event is pushed or the best ready priority
        moves (which also tells whether anything is ready): nothing else
        it reads can change while this thread runs.
        """
        scheduler = self.scheduler
        events = self.events
        handlers = _HANDLERS
        limit = None
        while True:
            if scheduler.best_ready > thread.priority and self._maybe_preempt(
                cpu, thread
            ):
                return
            try:
                if thread.pending_throw is not None:
                    error = thread.pending_throw
                    thread.pending_throw = None
                    if thread.pending_channel is not None:
                        self._return_channel_item(thread)
                    trap = thread.body.throw(error)
                else:
                    value = thread.pending_send
                    thread.pending_send = None
                    thread.pending_channel = None
                    trap = thread.body.send(value)
            except StopIteration as stop:
                self._finish(cpu, thread, stop.value)
                return
            except KernelUsageError:
                raise
            except Exception as error:  # noqa: BLE001 - thread death boundary
                self._finish_error(cpu, thread, error)
                return
            handler = handlers.get(type(trap))
            if handler is None:
                raise KernelUsageError(
                    f"thread {thread.name!r} yielded {trap!r}, not a kernel trap"
                )
            outcome = handler(self, cpu, thread, trap)
            if outcome is _Outcome.SUSPEND:
                return
            if outcome is _Outcome.BURN:
                if scheduler.best_ready > thread.priority and self._maybe_preempt(
                    cpu, thread
                ):
                    return
                end = self.now + thread.pending_compute
                if horizon is not None:
                    if (
                        limit is None
                        or pushes != events.pushes
                        or best != scheduler.best_ready
                    ):
                        limit = self._burn_limit(cpu, horizon)
                        pushes = events.pushes
                        best = scheduler.best_ready
                    if limit is not None and end <= limit:
                        self.now = end
                        thread.pending_compute = 0
                        continue
                cpu.burst_start = self.now
                cpu.busy_until = end
                return
            # CONTINUE: handle the next trap at the same instant.

    def _burn_limit(self, cpu: Cpu, horizon: int) -> int | None:
        """The latest instant to which ``_resume`` may burn a burst that
        starts now on ``cpu``, or None if this instant's tick must run
        first (it follows the burst completions and may rotate the
        thread).

        Each bound keeps an instant the loop must visit: the horizon;
        the next quantum boundary (the loop ticks on any boundary it
        lands on); the next watchdog sweep (at or before now when one is
        due); the next event (one exactly at the limit fires after the
        thread resumes there either way); and on a multiprocessor
        another CPU's burst ending (at the same instant, CPU index order
        decides), its preemption by a thread readied now, or an idle
        CPU's dispatch (``take_next`` also clears a stale donation).  A
        burst may end on a bound but the next one cannot, so a limit
        kept across bursts stops there too.  A limit earlier than needed
        is safe: the loop completes the burst on the same schedule.
        Terms are read directly; ``best_ready`` is nonzero exactly when
        something is ready, and fair share never preempts on priority.
        """
        now = self.now
        quantum = self.config.quantum
        if now % quantum == 0 and now != self._last_tick:
            return None
        limit = (now // quantum + 1) * quantum
        if horizon < limit:
            limit = horizon
        if self.watchdog is not None and self.watchdog.next_sweep < limit:
            limit = self.watchdog.next_sweep
        heap = self.events._heap
        if heap and heap[0][0] < limit:
            limit = heap[0][0]
        scheduler = self.scheduler
        if len(scheduler.cpus) > 1:
            for other in scheduler.cpus:
                if other is cpu:
                    continue
                running = other.current
                if running is None:
                    if scheduler.best_ready or other.donee is not None:
                        return None
                elif (
                    scheduler.best_ready > running.priority
                    and other.donee is not running
                    and scheduler.policy != "fair_share"
                ):
                    return None
                elif other.busy_until <= limit:
                    limit = other.busy_until - 1
        return limit

    def _maybe_preempt(self, cpu: Cpu, thread: SimThread) -> bool:
        """Preempt ``thread``, which a ready thread outranks, unless a
        donation pins it or the policy is fair share.

        Callers compare the scheduler's cached best-ready priority with
        the thread's before they call here: ``_resume`` before every
        trap and every burst, and each ``run_until`` pass for every
        running thread, which also covers threads in mid-burst.
        """
        scheduler = self.scheduler
        if cpu.donee is thread or scheduler.policy == "fair_share":
            return False
        self.stats.preemptions += 1
        thread.stats.preemptions += 1
        self._interrupt_burst(cpu)  # a no-op inside _resume: no burst yet
        self._off_cpu(cpu, thread)
        # Preempted threads keep their round-robin place: queue front.
        scheduler.make_ready(thread, front=True)
        if self._tracing:
            self.tracer.record(self.now, instr.CAT_SWITCH, "preempt", thread.name)
        return True

    def _interrupt_burst(self, cpu: Cpu) -> None:
        """Account a partially-completed compute burst."""
        thread = cpu.current
        if thread is None or cpu.busy_until is None:
            return
        consumed = self.now - cpu.burst_start
        thread.pending_compute = max(0, thread.pending_compute - consumed)
        cpu.busy_until = None
        cpu.burst_start = None

    def _off_cpu(self, cpu: Cpu, thread: SimThread) -> None:
        """Deschedule accounting: close the execution interval."""
        interval = self.now - thread.last_dispatched
        thread.stats.cpu_time += interval
        self.stats.note_interval(interval, thread.priority)
        # A uniform leave-CPU marker so trace consumers can close run
        # spans regardless of *why* the thread left (block/yield/finish).
        if self._tracing:
            self.tracer.record(self.now, instr.CAT_SWITCH, "offcpu", thread.name)
        cpu.current = None
        cpu.busy_until = None
        cpu.burst_start = None

    def _block_current(
        self, cpu: Cpu, thread: SimThread, state: ThreadState, blocked_on: Any
    ) -> None:
        self._off_cpu(cpu, thread)
        thread.state = state
        thread.blocked_on = blocked_on
        if self.watchdog is not None:
            self.watchdog.on_block(thread)

    # ------------------------------------------------------------------
    # Thread lifecycle
    # ------------------------------------------------------------------

    def _create_thread(
        self,
        proc: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        *,
        name: str | None,
        priority: int,
        parent: SimThread | None,
        role: str | None,
        detached: bool,
    ) -> SimThread:
        if not (MIN_PRIORITY <= priority <= MAX_PRIORITY):
            raise KernelUsageError(f"priority {priority} outside 1..7")
        body = proc(*args, **kwargs)
        if not inspect.isgenerator(body):
            raise KernelUsageError(
                f"thread proc {proc!r} must be a generator function "
                "(a body that yields kernel traps)"
            )
        tid = next(self._tid_counter)
        thread = SimThread(
            tid=tid,
            name=name or f"{proc.__name__}#{tid}",
            body=body,
            priority=priority,
            created_at=self.now,
            parent=parent,
            role=role,
        )
        thread.detached = detached
        self.threads[tid] = thread
        self.stats.threads_created += 1
        self.stats.live_threads += 1
        self.stats.max_live_threads = max(
            self.stats.max_live_threads, self.stats.live_threads
        )
        self.stats.stack_bytes += self.config.stack_reservation
        self.stats.max_stack_bytes = max(
            self.stats.max_stack_bytes, self.stats.stack_bytes
        )
        self.stats.thread_log.append(
            ThreadRecord(
                tid=tid,
                name=thread.name,
                parent_tid=parent.tid if parent else None,
                generation=thread.generation,
                priority=priority,
                created_at=self.now,
                role=role,
            )
        )
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_FORK, "create", thread.name,
                parent.name if parent else None,
            )
        if self.race_detector is not None:
            self.race_detector.on_fork(parent, thread)
        return thread

    def _finish(self, cpu: Cpu, thread: SimThread, value: Any) -> None:
        if thread.held_monitors:
            names = [m.name for m in thread.held_monitors]
            raise MonitorProtocolError(
                f"thread {thread.name!r} finished while holding {names}"
            )
        self._off_cpu(cpu, thread)
        thread.state = ThreadState.DONE
        thread.result = value
        thread.ended_at = self.now
        self._account_thread_end(thread)
        if thread.joiner is not None:
            joiner = thread.joiner
            if self.race_detector is not None:
                self.race_detector.on_join(joiner, thread)
            joiner.pending_send = value
            self.scheduler.make_ready(joiner)
        if self._tracing:
            self.tracer.record(self.now, instr.CAT_END, "finish", thread.name)
        self._release_fork_waiter()

    def _finish_error(self, cpu: Cpu, thread: SimThread, error: BaseException) -> None:
        # An exception unwinding through user-level `finally` clauses has
        # already released monitors (Exit traps execute during the throw);
        # anything still held means the cleanup protocol was violated.
        if thread.held_monitors:
            names = [m.name for m in thread.held_monitors]
            raise MonitorProtocolError(
                f"thread {thread.name!r} died holding {names}: {error!r}"
            ) from error
        self._off_cpu(cpu, thread)
        thread.state = ThreadState.DONE
        # Kept without the frame of ``_resume`` that caught it, so the
        # traceback starts in the thread's body.  Held by the traceback,
        # that frame (and, once it returns, its callers' frames) would
        # tie this kernel into a cycle through its thread table.
        thread.error = error.with_traceback(error.__traceback__.tb_next)
        thread.ended_at = self.now
        self._account_thread_end(thread)
        wrapped = UncaughtThreadError(thread.name, error)
        if thread.joiner is not None:
            joiner = thread.joiner
            if self.race_detector is not None:
                self.race_detector.on_join(joiner, thread)
            joiner.pending_throw = wrapped
            self.scheduler.make_ready(joiner)
        elif not isinstance(error, ThreadKilled):
            # Injected kills are faults, not workload bugs: an unjoined
            # victim's death must not fail the whole run at shutdown.
            self.pending_thread_errors.append(wrapped)
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_END, "die", thread.name, repr(error)
            )
        self._release_fork_waiter()

    def _account_thread_end(self, thread: SimThread) -> None:
        self.stats.threads_finished += 1
        self.stats.live_threads -= 1
        self.stats.stack_bytes -= self.config.stack_reservation
        self.stats.lifetimes.append((thread.lifetime, thread.role))

    def _release_fork_waiter(self) -> None:
        """A thread slot freed up: unblock the oldest waiting FORK."""
        if not self._fork_waiters:
            return
        if self.stats.live_threads >= self.config.max_threads:
            return
        waiter, trap = self._fork_waiters.pop(0)
        child = self._create_thread(
            trap.proc, trap.args, trap.kwargs,
            name=trap.name,
            priority=trap.priority if trap.priority is not None else waiter.priority,
            parent=waiter, role=None, detached=trap.detached,
        )
        self.scheduler.make_ready(child)
        self.stats.forks += 1
        waiter.stats.forks_issued += 1
        waiter.forked_children.append(child.tid)
        waiter.pending_send = child
        self.scheduler.make_ready(waiter)

    #: States that indicate a genuine wedge when nothing can run: resource
    #: waits only other simulated threads could ever satisfy.
    _DEADLOCK_STATES = frozenset(
        {
            ThreadState.BLOCKED_MONITOR,
            ThreadState.JOINING,
            ThreadState.FORK_WAIT,
        }
    )

    def _is_deadlocked(self) -> bool:
        """Live threads exist, nothing can run, and someone is stuck on an
        internal resource.

        Threads blocked on device channels are *not* deadlocked — channels
        are the external-world boundary and host code may post to them in
        a later run (an idle world's eternal threads sit exactly there).
        Untimed CV waits without any runnable notifier are likewise the
        normal quiescent state of server threads, so they do not raise by
        themselves; but a thread queued on a monitor, a JOIN, or a FORK
        resource wait that can never resolve is a real wedge.
        """
        live = [t for t in self.threads.values() if t.alive]
        if not live:
            return False
        if any(t.state is ThreadState.RECEIVING for t in live):
            return False
        return any(t.state in self._DEADLOCK_STATES for t in live)

    def _make_deadlock(self) -> Deadlock:
        """Build the global-wedge :class:`Deadlock` with diagnosis rows.

        The table names, for every live thread, what it waits ON and who
        holds that resource (monitor owner, CV's monitor owner, join
        target).  Row formatting lives in :mod:`repro.analysis.watchdog`
        (lazy import: this is an error path, never hot) so the watchdog's
        partial-deadlock reports and the CLI table share it.
        """
        from repro.analysis.watchdog import deadlock_rows, format_rows

        rows = deadlock_rows(self.threads.values())
        message = (
            "no runnable threads and no pending events; blocked threads:\n"
            + format_rows(rows)
        )
        return Deadlock(message, rows=rows)

    def _propagate_errors(self) -> None:
        if self.pending_thread_errors:
            raise self.pending_thread_errors.pop(0)

    # ------------------------------------------------------------------
    # Channels (device boundary)
    # ------------------------------------------------------------------

    def _channel_post(self, channel: Channel, item: Any) -> None:
        self.stats.channel_posts += 1
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_CHANNEL, "post", "-", channel.name
            )
        if self.race_detector is not None:
            self.race_detector.on_channel_post(channel)
        if not self._hand_to_receiver(channel, item):
            channel.items.append(item)

    def _hand_to_receiver(self, channel: Channel, item: Any) -> bool:
        """Hand ``item`` to the channel's first live waiter and ready it;
        False if no live receiver waits.

        A waiter with a pending kill will unwind at resume, not receive:
        handing it the item would drop the item on the floor.  Doomed
        waiters are skipped, resumed empty-handed to die.
        """
        waiters = channel.waiters
        while waiters and waiters[0].pending_throw is not None:
            doomed = waiters.popleft()
            doomed.wait_epoch += 1
            self.scheduler.make_ready(doomed)
        if not waiters:
            return False
        waiter = waiters.popleft()
        waiter.wait_epoch += 1  # invalidate any receive timeout
        waiter.pending_send = item
        waiter.pending_channel = channel
        channel.receives += 1
        self.stats.channel_receives += 1
        if self.race_detector is not None:
            self.race_detector.on_channel_receive(waiter, channel)
        self.scheduler.make_ready(waiter)
        return True

    def _return_channel_item(self, thread: SimThread) -> None:
        """``thread`` took a channel item but unwinds before its body
        sees it: a kill landed between the hand-off (or the buffered
        receive) and the resume.  The item goes to the channel's next
        live receiver, or back to the head of its buffer, so the
        receive is undone rather than lost."""
        channel = thread.pending_channel
        item = thread.pending_send
        thread.pending_channel = None
        thread.pending_send = None
        channel.receives -= 1
        self.stats.channel_receives -= 1
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_CHANNEL, "return", thread.name, channel.name
            )
        if not self._hand_to_receiver(channel, item):
            channel.items.appendleft(item)

    # ------------------------------------------------------------------
    # Trap handlers
    # ------------------------------------------------------------------

    def _h_compute(self, cpu: Cpu, thread: SimThread, trap: Compute) -> _Outcome:
        if trap.amount == 0:
            return _Outcome.CONTINUE
        thread.pending_compute += trap.amount
        return _Outcome.BURN

    def _h_fork(self, cpu: Cpu, thread: SimThread, trap: Fork) -> _Outcome:
        forced = (
            self.faults is not None
            and self.stats.live_threads < self.config.max_threads
            and self.faults.fail_fork()
        )
        if forced or self.stats.live_threads >= self.config.max_threads:
            if forced:
                self.faults.note("fork_fail", thread.name)
            self.stats.fork_failures += 1
            if self.config.fork_failure == FORK_FAILURE_RAISE:
                # The old systems "would raise an error when a FORK failed".
                thread.pending_throw = ForkFailed(
                    f"out of thread resources ({self.config.max_threads})"
                )
                return _Outcome.CONTINUE
            # "Our more recent implementations simply wait in the fork
            # implementation for more resources to become available."
            self.stats.fork_waits += 1
            self._block_current(cpu, thread, ThreadState.FORK_WAIT, "fork-resources")
            self._fork_waiters.append((thread, trap))
            return _Outcome.SUSPEND
        child = self._create_thread(
            trap.proc, trap.args, trap.kwargs,
            name=trap.name,
            priority=trap.priority if trap.priority is not None else thread.priority,
            parent=thread, role=None, detached=trap.detached,
        )
        self.scheduler.make_ready(child)
        self.stats.forks += 1
        thread.stats.forks_issued += 1
        thread.forked_children.append(child.tid)
        thread.pending_send = child
        return _Outcome.CONTINUE

    def _h_join(self, cpu: Cpu, thread: SimThread, trap: Join) -> _Outcome:
        target = trap.thread
        if target is thread:
            raise JoinProtocolError(f"{thread.name!r} cannot JOIN itself")
        if target.detached:
            raise JoinProtocolError(f"cannot JOIN detached thread {target.name!r}")
        if target.joined:
            raise JoinProtocolError(f"{target.name!r} JOINed more than once")
        target.joined = True
        self.stats.joins += 1
        if not target.alive:
            if self.race_detector is not None:
                self.race_detector.on_join(thread, target)
            if target.error is not None:
                thread.pending_throw = UncaughtThreadError(target.name, target.error)
            else:
                thread.pending_send = target.result
            return _Outcome.CONTINUE
        target.joiner = thread
        self._block_current(cpu, thread, ThreadState.JOINING, target)
        return _Outcome.SUSPEND

    def _h_detach(self, cpu: Cpu, thread: SimThread, trap: Detach) -> _Outcome:
        target = trap.thread
        if target.joined:
            raise JoinProtocolError(f"cannot DETACH joined thread {target.name!r}")
        target.detached = True
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _h_yield(self, cpu: Cpu, thread: SimThread, trap: Yield) -> _Outcome:
        self.stats.yields += 1
        thread.stats.yields += 1
        thread.pending_send = None
        self._off_cpu(cpu, thread)
        self.scheduler.make_ready(thread)
        if self._tracing:
            self.tracer.record(self.now, instr.CAT_YIELD, "yield", thread.name)
        return _Outcome.SUSPEND

    def _h_yield_but_not_to_me(
        self, cpu: Cpu, thread: SimThread, trap: YieldButNotToMe
    ) -> _Outcome:
        self.stats.yields += 1
        thread.stats.yields += 1
        thread.pending_send = None
        other = self.scheduler.peek_best_other(thread)
        if other is None:
            return _Outcome.CONTINUE  # nobody else to give the CPU to
        cpu.donee = other
        self._off_cpu(cpu, thread)
        self.scheduler.make_ready(thread)
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_YIELD, "yield-but-not-to-me",
                thread.name, other.name,
            )
        return _Outcome.SUSPEND

    def _h_directed_yield(
        self, cpu: Cpu, thread: SimThread, trap: DirectedYield
    ) -> _Outcome:
        self.stats.directed_yields += 1
        thread.stats.yields += 1
        thread.pending_send = None
        target = trap.target
        if target.state is not ThreadState.READY:
            return _Outcome.CONTINUE  # target cannot use the donation
        cpu.donee = target
        self._off_cpu(cpu, thread)
        self.scheduler.make_ready(thread)
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_YIELD, "directed-yield",
                thread.name, target.name,
            )
        return _Outcome.SUSPEND

    def _h_pause(self, cpu: Cpu, thread: SimThread, trap: Pause) -> _Outcome:
        self._block_current(cpu, thread, ThreadState.SLEEPING, "sleep")
        self._arm_timed(thread, self.now + trap.duration, "sleep")
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_SLEEP, "sleep", thread.name, trap.duration
            )
        return _Outcome.SUSPEND

    def _h_get_self(self, cpu: Cpu, thread: SimThread, trap: GetSelf) -> _Outcome:
        thread.pending_send = thread
        return _Outcome.CONTINUE

    def _h_get_time(self, cpu: Cpu, thread: SimThread, trap: GetTime) -> _Outcome:
        thread.pending_send = self.now
        return _Outcome.CONTINUE

    def _h_set_priority(
        self, cpu: Cpu, thread: SimThread, trap: SetPriority
    ) -> _Outcome:
        if not (MIN_PRIORITY <= trap.priority <= MAX_PRIORITY):
            raise KernelUsageError(f"priority {trap.priority} outside 1..7")
        previous = thread.priority
        thread.priority = trap.priority
        thread.pending_send = previous
        return _Outcome.CONTINUE

    def _h_annotate(self, cpu: Cpu, thread: SimThread, trap: Annotate) -> _Outcome:
        self.tracer.record(
            self.now, instr.CAT_ANNOTATE, trap.label, thread.name, trap.data
        )
        thread.pending_send = None
        return _Outcome.CONTINUE

    # -- shared memory (Section 5.5) ---------------------------------------

    def _h_mem_write(self, cpu: Cpu, thread: SimThread, trap: MemWrite) -> _Outcome:
        token = None
        if self.race_detector is not None:
            # The detector sees the access with the thread's current
            # holding-lockset (thread.held_monitors) attached.  The
            # returned write token travels with the stored value so a
            # later reader can report which write it observed.
            token = self.race_detector.on_write(thread, trap.var, self.now)
        if self._buffered:
            self._offer_mem_drains()
        self.memory.store(trap.var, trap.value, self.now, thread, token)
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _h_mem_read(self, cpu: Cpu, thread: SimThread, trap: MemRead) -> _Outcome:
        if self._buffered:
            self._offer_mem_drains()
        value, token = self.memory.load_observed(trap.var, self.now, thread)
        thread.pending_send = value
        if self.race_detector is not None:
            self.race_detector.on_read(thread, trap.var, self.now, observed=token)
        return _Outcome.CONTINUE

    def _h_fence(self, cpu: Cpu, thread: SimThread, trap: Fence) -> _Outcome:
        if self._buffered:  # under sc, fences are free no-ops
            self.memory.fence(thread)
        if self.race_detector is not None:
            self.race_detector.on_fence(thread)
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _offer_mem_drains(self) -> None:
        """Store-buffer drains as decisions (``mem.drain`` sites).

        Before each memory access, every buffered store the model could
        legally commit next is offered as one decision: choice 0 holds
        all buffers (the default — buffers then drain only by age or
        fences), choice k commits option k.  Draining re-offers until the
        answer is to hold, so an explorer can flush any legal combination
        at any access boundary.
        """
        memory = self.memory
        while True:
            options = memory.drain_options()
            if not options:
                return
            choice = self.decide(
                "mem.drain", len(options) + 1, first_choice, options
            )
            if choice == 0:
                return
            memory.drain_option(options[choice - 1][0], self.now)

    # -- monitors and condition variables ---------------------------------

    def _h_enter(self, cpu: Cpu, thread: SimThread, trap: Enter) -> _Outcome:
        monitor = trap.monitor
        # "The monitor implementation for weak ordering can use memory
        # barrier instructions to ensure that all monitor-protected data
        # access is consistent."
        if self._buffered:
            self.memory.fence(thread)
        monitor.enters += 1
        self.stats.ml_enters += 1
        thread.stats.monitor_enters += 1
        self.stats.monitors_used.add(monitor.uid)
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_MONITOR, "enter", thread.name, monitor.name
            )
        if monitor.owner is None:
            monitor.owner = thread
            thread.held_monitors.append(monitor)
            if self.race_detector is not None:
                self.race_detector.on_acquire(thread, monitor)
            thread.pending_send = None
            if self.config.monitor_overhead:
                thread.pending_compute += self.config.monitor_overhead
                return _Outcome.BURN
            return _Outcome.CONTINUE
        if monitor.owner is thread:
            raise MonitorProtocolError(
                f"{thread.name!r} re-entered monitor {monitor.name!r} "
                "(Mesa monitors are not reentrant)"
            )
        monitor.blocks += 1
        self.stats.ml_contended += 1
        thread.stats.monitor_blocks += 1
        thread.pending_send = None
        self._block_current(cpu, thread, ThreadState.BLOCKED_MONITOR, monitor)
        monitor.enqueue(thread)
        if self.config.monitor_priority_inheritance:
            self._donate_priority(monitor, thread)
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_MONITOR, "block", thread.name, monitor.name
            )
        return _Outcome.SUSPEND

    def _donate_priority(self, monitor: Any, blocker: SimThread) -> None:
        """Priority-inheritance ablation: boost the owner to the blocked
        thread's priority until it exits the monitor."""
        owner = monitor.owner
        if owner is None or owner.priority >= blocker.priority:
            return
        if monitor.boost_restore is None:
            monitor.boost_restore = owner.priority
        if owner.state is ThreadState.READY:
            self.scheduler.requeue_for_priority_change(owner, blocker.priority)
        else:
            owner.priority = blocker.priority

    def _h_exit(self, cpu: Cpu, thread: SimThread, trap: Exit) -> _Outcome:
        monitor = trap.monitor
        if monitor.owner is not thread:
            raise MonitorProtocolError(
                f"{thread.name!r} exited monitor {monitor.name!r} it does not hold"
            )
        thread.held_monitors.remove(monitor)
        self.stats.ml_exits += 1
        if self.race_detector is not None:
            self.race_detector.on_release(thread, monitor)
        if monitor.boost_restore is not None:
            # Inheritance ablation: drop back to the pre-boost priority.
            thread.priority = monitor.boost_restore
            monitor.boost_restore = None
        if self._buffered:
            self.memory.fence(thread)
        self._hand_off_monitor(monitor)
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_MONITOR, "exit", thread.name, monitor.name
            )
        thread.pending_send = None
        if self.config.monitor_overhead:
            thread.pending_compute += self.config.monitor_overhead
            return _Outcome.BURN
        return _Outcome.CONTINUE

    def _hand_off_monitor(self, monitor: Any) -> None:
        """Release a mutex: wake the first queued thread to *compete*.

        Mesa monitors release the lock and make the head waiter runnable;
        the waiter reacquires when scheduled ("threads must compete for
        the monitor's mutex").  Direct ownership handoff would create
        lock convoys: a high-priority thread re-entering immediately
        after exit would block on a lock owned by a thread that has not
        even run yet.  Competition also permits barging, exactly as the
        real implementation did.
        """
        monitor.owner = None
        if monitor.entry_queue:
            waiter = monitor.entry_queue.popleft()
            waiter.resume_action = ("reacquire", monitor, False)
            self.scheduler.make_ready(waiter)

    def _h_wait(self, cpu: Cpu, thread: SimThread, trap: Wait) -> _Outcome:
        cv = trap.condition
        monitor = cv.monitor
        if monitor.owner is not thread:
            raise MonitorProtocolError(
                f"{thread.name!r} WAITed on {cv.name!r} without holding "
                f"monitor {monitor.name!r}"
            )
        cv.waits += 1
        self.stats.cv_waits += 1
        thread.stats.cv_waits += 1
        self.stats.cvs_used.add(cv.uid)
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_CV, "wait", thread.name, cv.name
            )
        # Atomically release the monitor...
        thread.held_monitors.remove(monitor)
        if self.race_detector is not None:
            self.race_detector.on_release(thread, monitor)
        self._hand_off_monitor(monitor)
        # ...and sleep on the condition.
        thread.wake_was_notify = False
        thread.wait_epoch += 1
        self._block_current(cpu, thread, ThreadState.WAITING_CV, cv)
        cv.waiters.append(thread)
        timeout = trap.timeout if trap.timeout is not None else cv.default_timeout
        if timeout is not None:
            self._arm_timed(thread, self.now + timeout, "cv")
        return _Outcome.SUSPEND

    def _h_notify(self, cpu: Cpu, thread: SimThread, trap: Notify) -> _Outcome:
        cv = trap.condition
        self._require_monitor_for_cv(thread, cv, "NOTIFY")
        cv.notifies += 1
        self.stats.cv_notifies += 1
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_CV, "notify", thread.name, cv.name
            )
        if self.race_detector is not None:
            self.race_detector.on_notify(thread, cv)
        if (
            self.faults is not None
            and cv.waiters
            and self.faults.steal_notify()
        ):
            # The NOTIFY happened (counted, traced, race-ordered) but its
            # wakeup is lost — the §4.2 hazard that WAIT-in-a-loop code
            # with timeouts survives and IF-based code does not.
            self.faults.note("drop_notify", thread.name, cv.name)
            thread.pending_send = None
            return _Outcome.CONTINUE
        wake = 1
        if self.config.notify_wakes == WAKES_AT_LEAST_ONE and len(cv.waiters) > 1:
            extra = self.decide(
                "sched.notify_extra",
                2,
                lambda _seq: int(
                    self.rng.chance(self.config.at_least_one_extra_prob)
                ),
            )
            if extra:
                wake = 2
        for _ in range(min(wake, len(cv.waiters))):
            self._wake_cv_waiter(cv)
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _h_broadcast(self, cpu: Cpu, thread: SimThread, trap: Broadcast) -> _Outcome:
        cv = trap.condition
        self._require_monitor_for_cv(thread, cv, "BROADCAST")
        cv.broadcasts += 1
        self.stats.cv_broadcasts += 1
        if self._tracing:
            self.tracer.record(
                self.now, instr.CAT_CV, "broadcast", thread.name, cv.name
            )
        if self.race_detector is not None:
            self.race_detector.on_notify(thread, cv)
        while cv.waiters:
            self._wake_cv_waiter(cv)
        thread.pending_send = None
        return _Outcome.CONTINUE

    def _require_monitor_for_cv(self, thread: SimThread, cv: Any, op: str) -> None:
        """"The compiler enforces the rule that CV operations are only
        invoked with the monitor lock held" — we enforce it at runtime."""
        if cv.monitor.owner is not thread:
            raise MonitorProtocolError(
                f"{thread.name!r} invoked {op} on {cv.name!r} without holding "
                f"monitor {cv.monitor.name!r}"
            )

    def _wake_cv_waiter(self, cv: Any) -> None:
        waiter = cv.waiters.popleft()
        self._deliver_cv_wake(cv, waiter)

    def _inject_spurious_wake(self, thread: SimThread) -> None:
        """Fault injection: wake a CV waiter with no NOTIFY pending.

        The wake is indistinguishable from a notification to the waiter
        (WAIT returns True) — exactly the hazard that makes "re-check the
        predicate in a loop" mandatory (Section 4.2).  Unlike a real
        NOTIFY the waiter always re-competes for the mutex: the deferred
        path parks waiters on the notifier's entry queue awaiting its
        Exit, but a spurious wake has no notifier — the monitor may be
        unowned, and a parked waiter would strand there forever.
        """
        cv = thread.blocked_on
        cv.waiters.remove(thread)
        self.faults.note("spurious_wakeup", thread.name, cv.name)
        thread.wait_epoch += 1  # cancels the pending timeout lazily
        thread.wake_was_notify = True
        self.stats.cv_wakeups += 1
        thread.pending_send = True  # looks exactly like a notification
        thread.resume_action = ("reacquire", cv.monitor, False)
        self.scheduler.make_ready(thread)

    def _inject_kill(self, thread: SimThread, *, note: bool = True) -> None:
        """Fault injection: kill a thread at its next trap boundary.

        Delivered via ``pending_throw``, so the generator unwinds through
        its ``finally`` clauses — monitors are released like any other
        exception exit, and ``_finish_error`` still enforces that.

        ``note=False`` for *scripted* kills (directed chaos strikes):
        they are part of the scenario, not an injected fault, and must
        not perturb fault accounting or the trace merely because a
        (possibly zero-rate) fault plan happens to be installed.
        """
        thread.pending_throw = ThreadKilled(
            f"fault injection killed {thread.name!r} at {self.now}us"
        )
        if note and self.faults is not None:
            self.faults.note("kill", thread.name)

    def _deliver_cv_wake(self, cv: Any, waiter: SimThread) -> None:
        """Wake a thread already removed from ``cv.waiters``."""
        waiter.wait_epoch += 1  # cancels the pending timeout lazily
        waiter.wake_was_notify = True
        if self.race_detector is not None:
            self.race_detector.on_cv_wake(waiter, cv)
        waiter.stats.cv_notifies_received += 1
        self.stats.cv_wakeups += 1
        if self.config.notify_semantics == NOTIFY_DEFERRED:
            # The fix: the waiter goes straight onto the mutex entry queue
            # and becomes runnable only when the notifier exits the monitor.
            waiter.state = ThreadState.BLOCKED_MONITOR
            waiter.blocked_on = cv.monitor
            waiter.pending_send = True
            cv.monitor.enqueue(waiter)
        else:
            # Original behaviour: made runnable immediately; it will run,
            # find the mutex held, and block — a spurious lock conflict.
            waiter.pending_send = True  # WAIT returns True when notified
            waiter.resume_action = ("reacquire", cv.monitor, True)
            self.scheduler.make_ready(waiter)

    def _h_channel_receive(
        self, cpu: Cpu, thread: SimThread, trap: Channelreceive
    ) -> _Outcome:
        channel = trap.channel
        if channel.items:
            # Marked like a hand-off: the body sees the item only at the
            # next send, after a preemption check, and a thread killed
            # before that gives it back.
            thread.pending_send = channel.items.popleft()
            thread.pending_channel = channel
            channel.receives += 1
            self.stats.channel_receives += 1
            if self.race_detector is not None:
                self.race_detector.on_channel_receive(thread, channel)
            return _Outcome.CONTINUE
        thread.wait_epoch += 1
        self._block_current(cpu, thread, ThreadState.RECEIVING, channel)
        channel.waiters.append(thread)
        if trap.timeout is not None:
            self._arm_timed(thread, self.now + trap.timeout, "channel")
        return _Outcome.SUSPEND

    def _arm_timed(self, thread: SimThread, deadline: int, kind: str) -> None:
        if self.faults is not None:
            jitter = self.faults.timer_jitter()
            if jitter:
                self.faults.note("timer_jitter", thread.name, jitter)
                deadline += jitter
        # Stamp the epoch so observers can tell a timed wait (self-waking,
        # never part of a deadlock cycle) from an untimed one.
        thread.timed_epoch = thread.wait_epoch
        heapq.heappush(
            self._timed,
            (deadline, next(self._timed_seq), thread, thread.wait_epoch, kind),
        )


#: Trap type -> handler, shared by every kernel (``_resume`` passes the
#: kernel in).  A per-kernel table of bound methods would cost a dict
#: and 21 method objects per kernel, each pointing back at it.
_HANDLERS: dict[type, Callable[[Kernel, Cpu, SimThread, Any], _Outcome]] = {
    Compute: Kernel._h_compute,
    Fork: Kernel._h_fork,
    Join: Kernel._h_join,
    Detach: Kernel._h_detach,
    Yield: Kernel._h_yield,
    YieldButNotToMe: Kernel._h_yield_but_not_to_me,
    DirectedYield: Kernel._h_directed_yield,
    Pause: Kernel._h_pause,
    GetSelf: Kernel._h_get_self,
    GetTime: Kernel._h_get_time,
    SetPriority: Kernel._h_set_priority,
    Enter: Kernel._h_enter,
    Exit: Kernel._h_exit,
    Wait: Kernel._h_wait,
    Notify: Kernel._h_notify,
    Broadcast: Kernel._h_broadcast,
    Channelreceive: Kernel._h_channel_receive,
    Annotate: Kernel._h_annotate,
    MemWrite: Kernel._h_mem_write,
    MemRead: Kernel._h_mem_read,
    Fence: Kernel._h_fence,
}
