"""Waits-for watchdog: partial deadlocks and starvation, while live.

The kernel's built-in detector only fires when *nothing* can run — the
whole simulation is wedged and ``run_until`` has no next instant.  The
paper's systems failed more insidiously: two threads of a forty-thread
world deadlock over a pair of monitors and the rest of the system keeps
running, or a ready thread sits behind a priority inversion "for
considerable periods of time" (Section 6.2) without anything being
technically stuck.  This watchdog catches both, on-line, from the same
trap seams the race detector uses.

**Waits-for graph.**  Each blocked thread has at most one out-edge, so
the graph is functional and cycle detection is pointer-chasing with
path colouring — O(blocked threads) per sweep:

* ``BLOCKED_MONITOR`` → the monitor's owner;
* ``JOINING`` → the join target (while it is alive);
* untimed ``WAITING_CV`` → the CV's monitor's owner.  Sound because
  NOTIFY/BROADCAST require holding the monitor: if the owner can never
  release it, nobody — the owner included — can ever notify.

Timed waits of any kind self-wake and get no edge.  ``RECEIVING`` is the
device boundary (host code may post later); ``FORK_WAIT`` waits on the
thread *pool*, not any one thread.  Neither joins a cycle.

Edges are computed at check time from live thread state, never cached:
the deferred-NOTIFY path moves a waiter from a CV to a monitor entry
queue without a kernel block event, so stored edges would go stale.
``on_block`` only registers *candidates*; a sweep revalidates each one.

**Starvation.**  A thread that is READY can only leave READY by being
dispatched (which bumps ``stats.dispatches``), so "continuously ready
since t" is provable from two facts at sweep time: still READY, and
dispatch count unchanged since the sweep that first saw it.  A thread
ready longer than :data:`STARVATION_BUDGET` is reported once per
episode.

The watchdog is strictly passive: it draws no randomness and mutates no
kernel state, so a watchdog-on run reproduces the golden schedule hashes
bit-for-bit as long as it has nothing to report (and the false-positive
tests pin that it reports nothing on all golden scenarios).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

from repro.kernel.simtime import sec
from repro.kernel.thread import SimThread, ThreadState

if TYPE_CHECKING:  # pragma: no cover
    from repro.kernel.kernel import Kernel

#: Row layout shared by the watchdog, the kernel's global deadlock
#: report, and the CLI's ``--no-raise-on-deadlock`` table.
ROW_HEADER = ("thread", "state", "waits on", "held by")

#: A READY thread continuously undispatched for this long is starving.
STARVATION_BUDGET = sec(1)


@dataclass(frozen=True)
class DeadlockReport:
    """One waits-for cycle, reported the first sweep it is seen."""

    time: int
    #: Thread names in edge order (cycle[i] waits on cycle[i+1], wrapping).
    cycle: tuple[str, ...]
    tids: frozenset[int]
    rows: tuple[tuple[str, str, str, str], ...]

    def __str__(self) -> str:
        chain = " -> ".join(self.cycle + (self.cycle[0],))
        return f"[{self.time}us] partial deadlock: {chain}"


@dataclass(frozen=True)
class StarvationReport:
    """A ready thread not dispatched within the starvation budget."""

    time: int
    thread: str
    tid: int
    priority: int
    ready_since: int

    @property
    def starved_for(self) -> int:
        return self.time - self.ready_since

    def __str__(self) -> str:
        return (
            f"[{self.time}us] starvation: {self.thread} (prio "
            f"{self.priority}) ready since {self.ready_since}us "
            f"({self.starved_for}us undispatched)"
        )


def waits_on(thread: SimThread) -> SimThread | None:
    """The thread's single waits-for out-edge, or None.

    Only edges that can participate in a cycle are returned; timed waits,
    channel receives and fork-resource waits yield None by design (see
    module docstring).
    """
    state = thread.state
    if state is ThreadState.BLOCKED_MONITOR:
        return thread.blocked_on.owner
    if state is ThreadState.JOINING:
        target = thread.blocked_on
        return target if target.alive else None
    if state is ThreadState.WAITING_CV:
        if thread.timed_epoch == thread.wait_epoch:
            return None  # live timeout: the wait self-wakes
        return thread.blocked_on.monitor.owner
    return None


def block_row(thread: SimThread) -> tuple[str, str, str, str]:
    """(thread, state, waits-on, held-by) diagnosis for one thread.

    Unlike :func:`waits_on` this covers *every* blocked state — it feeds
    human-facing reports, not cycle detection — and it names what the
    resource is and who currently holds it.
    """
    state = thread.state
    target = thread.blocked_on
    if state is ThreadState.BLOCKED_MONITOR:
        owner = target.owner
        held_by = owner.name if owner is not None else "nobody (being handed off)"
        return (thread.name, state.value, f"monitor {target.name}", held_by)
    if state is ThreadState.WAITING_CV:
        monitor = target.monitor
        owner = monitor.owner
        held_by = owner.name if owner is not None else "nobody"
        timed = " [timed]" if thread.timed_epoch == thread.wait_epoch else ""
        return (
            thread.name,
            state.value,
            f"cv {target.name} (monitor {monitor.name}){timed}",
            held_by,
        )
    if state is ThreadState.JOINING:
        return (
            thread.name,
            state.value,
            f"join {target.name}",
            f"{target.name} [{target.state.value}]",
        )
    if state is ThreadState.RECEIVING:
        return (
            thread.name, state.value,
            f"channel {target.name}", "external (device boundary)",
        )
    if state is ThreadState.FORK_WAIT:
        return (thread.name, state.value, "thread resources", "-")
    if state is ThreadState.SLEEPING:
        return (thread.name, state.value, "timer", "-")
    return (thread.name, state.value, "-", "-")


def deadlock_rows(threads: Iterable[SimThread]) -> list[tuple[str, str, str, str]]:
    """Diagnosis rows for every live thread (runnable ones included, so
    the report shows the whole system, not just the stuck part)."""
    rows = []
    for thread in threads:
        if not thread.alive:
            continue
        if thread.state in (ThreadState.READY, ThreadState.RUNNING, ThreadState.NEW):
            rows.append((thread.name, thread.state.value, "-", "-"))
        else:
            rows.append(block_row(thread))
    return rows


def format_rows(rows: list[tuple[str, str, str, str]]) -> str:
    """Render diagnosis rows as an aligned text table."""
    table = [ROW_HEADER, *rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(ROW_HEADER))]
    lines = []
    for index, row in enumerate(table):
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
        if index == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


class Watchdog:
    """Waits-for and starvation sweeps over a live kernel, once per
    quantum."""

    def __init__(self, kernel: "Kernel") -> None:
        #: The kernel's thread table and its tracer (None when tracing
        #: is off), not the kernel: holding it would make every kernel
        #: a reference cycle.
        self._threads = kernel.threads
        self._tracer = kernel.tracer if kernel._tracing else None
        self.interval = kernel.config.quantum
        #: Sim time of the next sweep: ``maybe_check`` sweeps at the first
        #: instant the kernel loop visits at or after it.
        self.next_sweep = self.interval
        #: Threads that blocked since the last sweep pruned them; states
        #: are revalidated live at check time.
        self._candidates: dict[int, SimThread] = {}
        #: Cycles already reported (as tid sets), so each fires once.
        self._seen_cycles: set[frozenset[int]] = set()
        #: tid -> (dispatch count, first sweep time seen ready with it).
        self._ready_seen: dict[int, tuple[int, int]] = {}
        #: tids already flagged this starvation episode.
        self._flagged_starving: set[int] = set()
        self.deadlocks: list[DeadlockReport] = []
        self.starvation: list[StarvationReport] = []
        self.checks = 0

    # -- kernel hooks ------------------------------------------------------

    def on_block(self, thread: SimThread) -> None:
        """Register a just-blocked thread as a cycle candidate."""
        if thread.state in (
            ThreadState.BLOCKED_MONITOR,
            ThreadState.WAITING_CV,
            ThreadState.JOINING,
        ):
            self._candidates[thread.tid] = thread

    def maybe_check(self, now: int) -> None:
        if now < self.next_sweep:
            return
        self.next_sweep = now + self.interval
        self.check(now)

    # -- the sweep ---------------------------------------------------------

    def check(self, now: int) -> None:
        """One full sweep: prune candidates, find cycles, scan starvation."""
        self.checks += 1
        self._find_cycles(now)
        self._scan_starvation(now)

    def _find_cycles(self, now: int) -> None:
        # Prune candidates that have moved on since they blocked.
        blocked_states = (
            ThreadState.BLOCKED_MONITOR,
            ThreadState.WAITING_CV,
            ThreadState.JOINING,
        )
        for tid in [
            tid
            for tid, t in self._candidates.items()
            if t.state not in blocked_states
        ]:
            del self._candidates[tid]
        # Functional-graph cycle hunt with path colouring.  0/absent =
        # unvisited this sweep, 1 = on the current path, 2 = exhausted.
        colour: dict[int, int] = {}
        for start in list(self._candidates.values()):
            if colour.get(start.tid):
                continue
            path: list[SimThread] = []
            node: SimThread | None = start
            while node is not None and colour.get(node.tid, 0) == 0:
                colour[node.tid] = 1
                path.append(node)
                node = waits_on(node)
            if node is not None and colour.get(node.tid) == 1:
                cycle = path[path.index(node):]
                self._report_cycle(now, cycle)
            for visited in path:
                colour[visited.tid] = 2

    def _report_cycle(self, now: int, cycle: list[SimThread]) -> None:
        tids = frozenset(t.tid for t in cycle)
        if tids in self._seen_cycles:
            return
        self._seen_cycles.add(tids)
        # Canonical order: start from the smallest tid so reports are
        # stable regardless of which candidate the sweep entered from.
        pivot = min(range(len(cycle)), key=lambda i: cycle[i].tid)
        ordered = cycle[pivot:] + cycle[:pivot]
        report = DeadlockReport(
            time=now,
            cycle=tuple(t.name for t in ordered),
            tids=tids,
            rows=tuple(block_row(t) for t in ordered),
        )
        self.deadlocks.append(report)
        if self._tracer is not None:
            from repro.kernel.instrumentation import CAT_WATCHDOG

            self._tracer.record(
                now, CAT_WATCHDOG, "deadlock", ordered[0].name,
                "->".join(report.cycle),
            )

    def _scan_starvation(self, now: int) -> None:
        ready_now: set[int] = set()
        for thread in self._threads.values():
            if thread.state is not ThreadState.READY:
                continue
            tid = thread.tid
            ready_now.add(tid)
            dispatches = thread.stats.dispatches
            seen = self._ready_seen.get(tid)
            if seen is None or seen[0] != dispatches:
                # First sight, or it ran since: a fresh episode starts.
                self._ready_seen[tid] = (dispatches, now)
                self._flagged_starving.discard(tid)
                continue
            ready_since = seen[1]
            if now - ready_since < STARVATION_BUDGET:
                continue
            if tid in self._flagged_starving:
                continue
            self._flagged_starving.add(tid)
            report = StarvationReport(
                time=now,
                thread=thread.name,
                tid=tid,
                priority=thread.priority,
                ready_since=ready_since,
            )
            self.starvation.append(report)
            if self._tracer is not None:
                from repro.kernel.instrumentation import CAT_WATCHDOG

                self._tracer.record(
                    now, CAT_WATCHDOG, "starvation", thread.name,
                    report.starved_for,
                )
        # Threads no longer ready start from scratch next time they queue.
        for tid in list(self._ready_seen):
            if tid not in ready_now:
                del self._ready_seen[tid]
                self._flagged_starving.discard(tid)

    # -- reporting ---------------------------------------------------------

    def describe(self) -> str:
        """Human-readable summary of everything found so far."""
        if not self.deadlocks and not self.starvation:
            return f"watchdog: no anomalies in {self.checks} sweeps"
        lines = [
            f"watchdog: {len(self.deadlocks)} partial deadlock(s), "
            f"{len(self.starvation)} starvation report(s) "
            f"in {self.checks} sweeps"
        ]
        for report in self.deadlocks:
            lines.append(str(report))
            lines.append(format_rows(list(report.rows)))
        lines.extend(str(report) for report in self.starvation)
        return "\n".join(lines)
