"""Aggregate kernel statistics — the numbers behind Tables 1-3.

``GlobalStats`` is updated inline by the kernel (cheap counter bumps) and
read by ``repro.analysis.dynamic`` to compute the paper's rates:

* Table 1: forks/sec, thread switches/sec
* Table 2: CV waits/sec, %-of-waits-that-time-out, monitor enters/sec,
  contention fraction
* Table 3: number of distinct CVs and monitor locks used
* F1/F2: execution-interval histogram and execution-time-by-interval share
* F4: CPU time by priority level

Counters are monotonic; measurements over a window subtract the
:meth:`GlobalStats.counters` taken at its start from those taken at its
end.  The distinct-use sets are the one exception — Table 3 counts
distinct objects *within* a benchmark, so the window clears them at its
start and reports their sizes at its end.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel.config import MAX_PRIORITY, MIN_PRIORITY


@dataclass(frozen=True)
class ThreadRecord:
    """Lightweight per-thread log entry (genealogy analysis, F3)."""

    tid: int
    name: str
    parent_tid: int | None
    generation: int
    priority: int
    created_at: int
    role: str | None


class GlobalStats:
    """Monotonic counters plus distinct-use sets and interval samples."""

    def __init__(self) -> None:
        self.forks = 0
        self.fork_failures = 0
        self.fork_waits = 0
        self.joins = 0
        self.switches = 0
        self.dispatches = 0
        self.preemptions = 0
        self.yields = 0
        self.directed_yields = 0
        self.ticks = 0
        self.ml_enters = 0
        self.ml_contended = 0
        self.ml_exits = 0
        self.cv_waits = 0
        self.cv_timeouts = 0
        self.cv_notifies = 0
        self.cv_broadcasts = 0
        self.cv_wakeups = 0
        self.spurious_conflicts = 0
        self.channel_posts = 0
        self.channel_receives = 0
        self.channel_timeouts = 0
        self.threads_created = 0
        self.threads_finished = 0
        self.live_threads = 0
        self.max_live_threads = 0
        #: Virtual memory currently reserved for thread stacks (Section 5.1).
        self.stack_bytes = 0
        self.max_stack_bytes = 0

        #: uids of distinct monitors entered / CVs waited on (Table 3).
        self.monitors_used: set[int] = set()
        self.cvs_used: set[int] = set()

        #: Injected-fault tally by kind (:mod:`repro.analysis.faults`):
        #: ``drop_notify``, ``spurious_wakeup``, ``fork_fail``, ``kill``,
        #: ``timer_jitter``.  Kept as a dict — not as one int attribute per
        #: kind — so a faults-off run's scalar-counter fingerprint (the
        #: golden-schedule stats hash digests every int attribute) is
        #: byte-identical to a build that predates fault injection.
        self.fault_counts: dict[str, int] = {}

        #: (duration_us, priority) per completed execution interval (F1/F2).
        self.exec_intervals: list[tuple[int, int]] = []
        #: CPU microseconds accumulated per priority level (F4).
        self.cpu_by_priority: dict[int, int] = {
            p: 0 for p in range(MIN_PRIORITY, MAX_PRIORITY + 1)
        }
        #: Log of every thread ever created (F3 genealogy).
        self.thread_log: list[ThreadRecord] = []
        #: (lifetime_us, role) of finished threads (lifetime analysis, §3).
        self.lifetimes: list[tuple[int, str | None]] = []

    # -- helpers used by the kernel ---------------------------------------

    def note_interval(self, duration: int, priority: int) -> None:
        self.exec_intervals.append((duration, priority))
        self.cpu_by_priority[priority] += duration

    def note_fault(self, kind: str) -> None:
        self.fault_counts[kind] = self.fault_counts.get(kind, 0) + 1

    def clear_distinct(self) -> None:
        """Start a fresh Table-3 window."""
        self.monitors_used.clear()
        self.cvs_used.clear()

    def counters(self) -> dict[str, int]:
        """Every integer counter by name: what a measurement window
        subtracts and the golden fingerprint hashes."""
        return {
            name: value for name, value in vars(self).items()
            if isinstance(value, int)
        }


@dataclass
class WindowStats:
    """Deltas over a measurement window plus the window duration."""

    duration: int
    counts: dict[str, int] = field(default_factory=dict)

    def rate(self, counter: str) -> float:
        """Events per second of simulated time."""
        from repro.kernel.simtime import per_second

        return per_second(self.counts.get(counter, 0), self.duration)

    def fraction(self, numerator: str, denominator: str) -> float:
        denom = self.counts.get(denominator, 0)
        if denom == 0:
            return 0.0
        return self.counts.get(numerator, 0) / denom
