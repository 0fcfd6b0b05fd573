"""Dynamic data-race detection: Eraser locksets fused with happens-before.

Section 5.5 of the paper shows threaded code whose correctness silently
depended on strong memory ordering, and the Mesa monitor discipline exists
precisely so that monitor-protected data is always safe.  The simulator can
*reproduce* those hazards (``casestudies/weakmem.py``); this module makes
them *detectable*: every shared-memory access and every synchronisation
event already flows through kernel traps, so a passive observer can decide
whether a workload follows the locking discipline at all.

Two classic analyses run side by side on the same event stream:

* **Lockset (Eraser)** — each :class:`~repro.kernel.memory.SimVar` moves
  through the state machine *virgin -> exclusive -> shared ->
  shared-modified*; once a variable is accessed by a second thread, the
  detector intersects the sets of monitors held at each access.  An empty
  intersection in the shared-modified state means no single lock protects
  the variable, and a :class:`RaceReport` is emitted.  Locksets flag the
  *policy* violation even when the scheduler happened to serialise the
  accesses on this run.

* **Happens-before (vector clocks)** — per-thread clocks joined on every
  synchronisation edge the kernel exposes: Fork/Join, monitor
  acquire/release, CV notify/wake, and Fence (modelled as publishing the
  writer's pre-fence clock with each subsequent store, acquired by
  readers of those stores).  When a lockset violation fires, the clocks
  say whether the two accesses were genuinely concurrent
  (``hb_race=True``) or ordered by some non-lock edge such as Fork
  (``hb_race=False`` — an Eraser false positive, e.g. parent-init data
  handed to a child).  Channel posts come from the external world
  (workload events, not threads), so a channel receive orders nothing.

A report is therefore triggered by the lockset machine and *confirmed* by
happens-before; :attr:`RaceDetector.races` lists only confirmed races,
:attr:`RaceDetector.reports` every lockset violation.

The detector is strictly passive: it never touches the scheduler, the
kernel RNG, or any thread state, so enabling
``KernelConfig(race_detection=True)`` cannot change a schedule —
``benchmarks/bench_races.py`` pins that property.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable

from repro.kernel.instrumentation import CAT_RACE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (kernel imports us)
    from repro.kernel.instrumentation import Tracer
    from repro.kernel.thread import SimThread

# Eraser variable states.
VIRGIN = "virgin"
EXCLUSIVE = "exclusive"
SHARED = "shared"
SHARED_MODIFIED = "shared-modified"


class VectorClock:
    """A sparse vector clock: tid -> logical time, absent means 0."""

    __slots__ = ("_c",)

    def __init__(self, init: dict[int, int] | None = None) -> None:
        self._c: dict[int, int] = dict(init) if init else {}

    def get(self, tid: int) -> int:
        return self._c.get(tid, 0)

    def tick(self, tid: int) -> None:
        self._c[tid] = self._c.get(tid, 0) + 1

    def join(self, other: "VectorClock") -> None:
        """Pointwise maximum, in place."""
        mine = self._c
        for tid, value in other._c.items():
            if value > mine.get(tid, 0):
                mine[tid] = value

    def copy(self) -> "VectorClock":
        return VectorClock(self._c)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{t}:{v}" for t, v in sorted(self._c.items()))
        return f"<VC {inner}>"


@dataclass(frozen=True)
class Access:
    """One memory access, as remembered for race pairing."""

    tid: int
    thread: str
    op: str            # "read" or "write"
    site: str          # "file.py:lineno in function"
    locks: tuple[str, ...]  # names of monitors held at the access
    time: int          # simulated microseconds
    epoch: int         # accessor's own clock component at the access

    def __str__(self) -> str:
        held = ",".join(self.locks) if self.locks else "no locks"
        return f"{self.op} by {self.thread} at {self.site} [{held}] t={self.time}"


@dataclass(frozen=True)
class RaceReport:
    """One detected lockset violation on one variable (first occurrence).

    ``first``/``second`` are the two conflicting accesses in time order
    (at least one is a write, by construction of the trigger).  ``hb_race``
    records whether vector clocks also found the pair concurrent: True
    means a confirmed data race; False means some non-lock edge (fork,
    join, fence publication) ordered the accesses and the lockset
    violation is advisory.

    ``sc_race`` classifies a confirmed race against the *SC
    interpretation* of the same run: a second clock system that
    additionally counts reads-from edges (a read that observed a write is
    ordered after it — under sequential consistency the observed data
    flow is an ordering).  ``sc_race=True`` means the pair is concurrent
    even with those edges — racy on any memory model.  ``sc_race=False``
    (with ``hb_race=True``) means the observed data flow orders the pair,
    so only a weaker model's store buffering lets the race manifest —
    the §5.5 "correct under strong ordering" pattern.
    """

    var_name: str
    var_uid: int
    first: Access
    second: Access
    hb_race: bool
    detected_at: int
    sc_race: bool = True

    def describe(self) -> str:
        if not self.hb_race:
            verdict = "lockset-only (ordered by happens-before)"
        elif self.sc_race:
            verdict = "RACE (racy even under SC)"
        else:
            verdict = "RACE (racy only under TSO/weak ordering)"
        return (
            f"{self.var_name!r}: {verdict}\n"
            f"    {self.first}\n"
            f"    {self.second}"
        )


class _ThreadClocks:
    """Per-thread detector state."""

    __slots__ = ("clock", "fence", "sc")

    def __init__(self, tid: int) -> None:
        self.clock = VectorClock({tid: 1})
        #: Snapshot of ``clock`` at the most recent fence (or implicit
        #: monitor fence); carried by subsequent stores as their
        #: publication clock.  Empty until the thread fences.
        self.fence = VectorClock()
        #: The SC-interpretation clock: mirrors every edge ``clock``
        #: sees *plus* reads-from edges (joining the observed write's
        #: token).  Own components tick in lockstep with ``clock``, so
        #: an :class:`Access` epoch is valid against either system.
        self.sc = VectorClock({tid: 1})


class _PairClock:
    """HB + SC clocks for one synchronisation object (monitor or CV)."""

    __slots__ = ("hb", "sc")

    def __init__(self) -> None:
        self.hb = VectorClock()
        self.sc = VectorClock()

    def acquire_into(self, state: _ThreadClocks) -> None:
        state.clock.join(self.hb)
        state.sc.join(self.sc)

    def release_from(self, state: _ThreadClocks) -> None:
        self.hb.join(state.clock)
        self.sc.join(state.sc)


class _VarState:
    """Per-SimVar detector state: Eraser machine + access history."""

    __slots__ = (
        "uid", "name", "state", "owner", "lockset", "last_write", "reads",
        "publish", "reported",
    )

    def __init__(self, uid: int, name: str) -> None:
        self.uid = uid
        self.name = name
        self.state = VIRGIN
        self.owner: int | None = None          # exclusive-state thread
        self.lockset: set[int] | None = None   # candidate locks (uids)
        self.last_write: Access | None = None
        self.reads: dict[int, Access] = {}     # tid -> most recent read
        #: Join of the fence clocks carried by stores to this variable;
        #: readers acquire it (the fence-publication happens-before edge).
        self.publish = VectorClock()
        self.reported = False


class RaceDetector:
    """Consumes kernel events and reports data races on SimVars.

    Instantiated by the kernel when ``KernelConfig(race_detection=True)``;
    every hook is invoked inline by the trap handlers.  All state is
    private to the detector — it observes, never steers.
    """

    def __init__(self, tracer: "Tracer | None" = None) -> None:
        #: The kernel's tracer (reports are traced), or None.  Only the
        #: tracer: holding the kernel would make every kernel a cycle.
        self._tracer = tracer
        self._threads: dict[int, _ThreadClocks] = {}
        self._vars: dict[int, _VarState] = {}
        self._monitor_clocks: dict[int, _PairClock] = {}
        self._cv_clocks: dict[int, _PairClock] = {}
        self.reports: list[RaceReport] = []
        self.reads = 0
        self.writes = 0

    # -- results -----------------------------------------------------------

    @property
    def races(self) -> list[RaceReport]:
        """Confirmed races: lockset empty *and* accesses HB-concurrent."""
        return [r for r in self.reports if r.hb_race]

    @property
    def lockset_only(self) -> list[RaceReport]:
        """Lockset violations that happens-before showed to be ordered."""
        return [r for r in self.reports if not r.hb_race]

    def format_report(self) -> str:
        if not self.reports:
            return "no lockset violations detected"
        return "\n".join(r.describe() for r in self.reports)

    # -- synchronisation edges --------------------------------------------

    def on_fork(self, parent: "SimThread | None", child: "SimThread") -> None:
        """FORK: everything the parent did happens-before the child."""
        child_state = self._thread(child.tid)
        if parent is not None:
            parent_state = self._thread(parent.tid)
            child_state.clock.join(parent_state.clock)
            child_state.sc.join(parent_state.sc)
            parent_state.clock.tick(parent.tid)
            parent_state.sc.tick(parent.tid)

    def on_join(self, joiner: "SimThread", target: "SimThread") -> None:
        """JOIN: everything the target did happens-before the joiner."""
        joiner_state = self._thread(joiner.tid)
        target_state = self._thread(target.tid)
        joiner_state.clock.join(target_state.clock)
        joiner_state.sc.join(target_state.sc)

    def on_acquire(self, thread: "SimThread", monitor: Any) -> None:
        """Monitor acquired: inherit every previous holder's history."""
        state = self._thread(thread.tid)
        self._monitor(monitor).acquire_into(state)
        # Monitor entry fences ("The monitor implementation for weak
        # ordering can use memory barrier instructions").
        state.fence = state.clock.copy()

    def on_release(self, thread: "SimThread", monitor: Any) -> None:
        """Monitor released (Exit or the release half of WAIT)."""
        state = self._thread(thread.tid)
        state.fence = state.clock.copy()
        self._monitor(monitor).release_from(state)
        state.clock.tick(thread.tid)
        state.sc.tick(thread.tid)

    def on_notify(self, thread: "SimThread", cv: Any) -> None:
        """NOTIFY/BROADCAST: the notifier's history flows to the wakers."""
        state = self._thread(thread.tid)
        self._cv(cv).release_from(state)
        state.clock.tick(thread.tid)
        state.sc.tick(thread.tid)

    def on_cv_wake(self, waiter: "SimThread", cv: Any) -> None:
        """A WAIT ended by notification: acquire the CV's clock."""
        self._cv(cv).acquire_into(self._thread(waiter.tid))

    def on_fence(self, thread: "SimThread") -> None:
        """Explicit Fence: subsequent stores publish the pre-fence clock."""
        state = self._thread(thread.tid)
        state.fence = state.clock.copy()
        state.clock.tick(thread.tid)
        state.sc.tick(thread.tid)

    # -- memory accesses ---------------------------------------------------

    def on_write(self, thread: "SimThread", var: Any, now: int) -> Any:
        """Record a write; returns the write token (the writer's SC clock
        snapshot) that the memory system stores alongside the value so a
        later reader can report exactly which write it observed."""
        self.writes += 1
        state = self._thread(thread.tid)
        vs = self._var(var)
        access = self._access(thread, "write", now, state)
        locks = self._held_uids(thread)

        if vs.state == VIRGIN:
            vs.state, vs.owner = EXCLUSIVE, thread.tid
        elif vs.state == EXCLUSIVE:
            if vs.owner != thread.tid:
                vs.state = SHARED_MODIFIED
                vs.lockset = set(locks)
        elif vs.state == SHARED:
            vs.state = SHARED_MODIFIED
            assert vs.lockset is not None
            vs.lockset &= locks
        else:  # SHARED_MODIFIED
            assert vs.lockset is not None
            vs.lockset &= locks

        self._check(vs, access, state, now)
        vs.last_write = access
        # Fence publication: this store carries everything that happened
        # before the writer's last fence.
        vs.publish.join(state.fence)
        return state.sc.copy()

    def on_read(
        self, thread: "SimThread", var: Any, now: int, observed: Any = None
    ) -> None:
        self.reads += 1
        state = self._thread(thread.tid)
        vs = self._var(var)
        # Acquire the fence-publication clock before judging this access:
        # a reader that observes fence-published data is ordered after the
        # writer's pre-fence history.
        state.clock.join(vs.publish)
        state.sc.join(vs.publish)
        if observed is not None:
            # Reads-from edge, SC interpretation only: the read observed
            # this write, so under SC the write is ordered before it.
            state.sc.join(observed)
        access = self._access(thread, "read", now, state)
        locks = self._held_uids(thread)

        if vs.state == VIRGIN:
            vs.state, vs.owner = EXCLUSIVE, thread.tid
        elif vs.state == EXCLUSIVE:
            if vs.owner != thread.tid:
                vs.state = SHARED
                vs.lockset = set(locks)
        else:  # SHARED or SHARED_MODIFIED
            assert vs.lockset is not None
            vs.lockset &= locks
        if vs.state == SHARED_MODIFIED:
            self._check(vs, access, state, now)
        elif vs.state == SHARED and not vs.lockset:
            # Classic Eraser stays silent on write-once data read by other
            # threads (it cannot tell racy reads from a safe handoff).  The
            # fused detector can: report the pair only when happens-before
            # *confirms* the read races the write — so a fork/join/fence
            # handoff stays silent and a §5.5 torn read does not.
            self._check(vs, access, state, now, require_hb=True)

        vs.reads[thread.tid] = access

    # -- internals ---------------------------------------------------------

    def _thread(self, tid: int) -> _ThreadClocks:
        state = self._threads.get(tid)
        if state is None:
            state = self._threads[tid] = _ThreadClocks(tid)
        return state

    def _var(self, var: Any) -> _VarState:
        state = self._vars.get(var.uid)
        if state is None:
            state = self._vars[var.uid] = _VarState(var.uid, var.name)
        return state

    def _monitor(self, monitor: Any) -> _PairClock:
        clock = self._monitor_clocks.get(monitor.uid)
        if clock is None:
            clock = self._monitor_clocks[monitor.uid] = _PairClock()
        return clock

    def _cv(self, cv: Any) -> _PairClock:
        clock = self._cv_clocks.get(cv.uid)
        if clock is None:
            clock = self._cv_clocks[cv.uid] = _PairClock()
        return clock

    @staticmethod
    def _held_uids(thread: "SimThread") -> frozenset[int]:
        return frozenset(m.uid for m in thread.held_monitors)

    def _access(
        self, thread: "SimThread", op: str, now: int, state: _ThreadClocks
    ) -> Access:
        return Access(
            tid=thread.tid,
            thread=thread.name,
            op=op,
            site=_describe_site(thread),
            locks=tuple(m.name for m in thread.held_monitors),
            time=now,
            epoch=state.clock.get(thread.tid),
        )

    def _check(
        self,
        vs: _VarState,
        access: Access,
        state: _ThreadClocks,
        now: int,
        *,
        require_hb: bool = False,
    ) -> None:
        """Lockset verdict at a suspicious access.

        ``require_hb=True`` (the shared-state read trigger) only reports
        pairs that happens-before proves concurrent.
        """
        if vs.reported or (vs.lockset is not None and vs.lockset):
            return
        other = self._conflicting_access(vs, access)
        if other is None:
            return
        # The pair is HB-ordered iff the current thread has seen the other
        # access's epoch (other happened-before this access).
        ordered = state.clock.get(other.tid) >= other.epoch
        if require_hb and ordered:
            return
        # Same test against the SC clocks (sync edges + reads-from):
        # sc ⊇ hb pointwise, so an HB-ordered pair is always SC-ordered.
        sc_ordered = state.sc.get(other.tid) >= other.epoch
        report = RaceReport(
            var_name=vs.name,
            var_uid=vs.uid,
            first=other,
            second=access,
            hb_race=not ordered,
            detected_at=now,
            sc_race=not sc_ordered,
        )
        vs.reported = True
        self.reports.append(report)
        if self._tracer is not None:
            self._tracer.record(
                now, CAT_RACE,
                "race" if report.hb_race else "lockset",
                access.thread,
                f"{vs.name} vs {other.op} by {other.thread}",
            )

    @staticmethod
    def _conflicting_access(vs: _VarState, access: Access) -> Access | None:
        """The most recent earlier access by a *different* thread that
        conflicts with ``access`` (a write, or any access if ``access``
        is a write)."""
        candidates: Iterable[Access | None]
        if access.op == "write":
            candidates = [vs.last_write, *vs.reads.values()]
        else:
            candidates = [vs.last_write]
        best: Access | None = None
        for candidate in candidates:
            if candidate is None or candidate.tid == access.tid:
                continue
            if best is None or candidate.time > best.time:
                best = candidate
        return best


def _describe_site(thread: "SimThread") -> str:
    """``file.py:lineno in function`` of the suspended yield, innermost
    generator of any ``yield from`` chain."""
    gen = thread.body
    frame = None
    while gen is not None:
        frame = getattr(gen, "gi_frame", None) or frame
        inner = getattr(gen, "gi_yieldfrom", None)
        if inner is None or not hasattr(inner, "gi_frame"):
            break
        gen = inner
    if frame is None:
        return "<unknown>"
    code = frame.f_code
    return f"{os.path.basename(code.co_filename)}:{frame.f_lineno} in {code.co_name}"
