"""Event tracing: the "instrumented PCR" of Section 3.

The paper's dynamic analysis came from "microsecond-resolution information
gathered about thread events and scheduling events": forks, yields,
scheduler switches, monitor lock entries and condition variable waits.
``Tracer`` records exactly those event kinds, each stamped with the
simulated microsecond clock.

Tracing is off by default (aggregate statistics are always collected by
``GlobalStats``); turn it on via ``KernelConfig(trace=True)`` when a test
or case study needs to inspect the microsecond spacing of events — e.g.
the spurious-lock-conflict study reads the exact switch sequence around a
NOTIFY.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

# Event categories (values appear in traces).
CAT_SWITCH = "switch"
CAT_FORK = "fork"
CAT_END = "end"
CAT_MONITOR = "monitor"
CAT_CV = "cv"
CAT_YIELD = "yield"
CAT_TICK = "tick"
CAT_SLEEP = "sleep"
CAT_CHANNEL = "channel"
CAT_ANNOTATE = "annotate"
CAT_RACE = "race"
CAT_FAULT = "fault"
CAT_WATCHDOG = "watchdog"


@dataclass(frozen=True)
class TraceEvent:
    """One timestamped kernel event."""

    time: int
    category: str
    kind: str
    thread: str
    detail: Any = None

    def __str__(self) -> str:
        extra = f" {self.detail}" if self.detail is not None else ""
        return f"[{self.time:>12d}us] {self.category}/{self.kind} {self.thread}{extra}"


class Tracer:
    """Collects :class:`TraceEvent` records while enabled."""

    def __init__(self, enabled: bool) -> None:
        self._events: list[TraceEvent] = []
        self.enabled = enabled

    def record(
        self, time: int, category: str, kind: str, thread: str, detail: Any = None
    ) -> None:
        if not self.enabled:
            return
        self._events.append(TraceEvent(time, category, kind, thread, detail))

    @property
    def events(self) -> list[TraceEvent]:
        return self._events

    def clear(self) -> None:
        self._events.clear()

    def by_category(self, category: str) -> Iterator[TraceEvent]:
        return (e for e in self._events if e.category == category)

    def by_thread(self, thread_name: str) -> Iterator[TraceEvent]:
        return (e for e in self._events if e.thread == thread_name)

    def between(self, start: int, end: int) -> Iterator[TraceEvent]:
        """Events with start <= time < end (a "100 millisecond event
        history" window, as the paper's conclusion puts it)."""
        return (e for e in self._events if start <= e.time < end)

    def format(self, limit: int | None = None) -> str:
        events = self._events if limit is None else self._events[:limit]
        return "\n".join(str(e) for e in events)
