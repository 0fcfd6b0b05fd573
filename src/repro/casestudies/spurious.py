"""Case study C3 (Section 6.1): spurious lock conflicts.

"A spurious lock conflict occurs between a thread notifying a CV and the
thread that it awakens. ...  We observed this phenomenon even on a
uniprocessor, where it occurs when the waiting thread has higher priority
than the notifying thread.  ...  In our systems the fix (defer processor
rescheduling, but not the notification itself, until after monitor exit)
was made in the runtime implementation."

The experiment runs an interpriority producer/consumer pair under both
NOTIFY semantics and counts the wasted trips through the scheduler.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel import Kernel, KernelConfig
from repro.kernel.primitives import Compute, Enter, Exit, Notify
from repro.kernel.simtime import sec, usec
from repro.sync.condition import ConditionVariable, await_condition
from repro.sync.monitor import Monitor


@dataclass
class SpuriousResult:
    semantics: str
    items: int
    spurious_conflicts: int
    switches: int
    dispatches: int
    #: RaceReports when run with ``race_detection=True`` (else empty).
    race_reports: list = field(default_factory=list)


def run_producer_consumer(
    *,
    notify_semantics: str,
    items: int = 50,
    consumer_priority: int = 5,
    producer_priority: int = 3,
    seed: int = 0,
    race_detection: bool = False,
) -> SpuriousResult:
    """One interpriority producer/consumer run.

    The producer notifies while still inside the monitor (the Mesa rule
    forbids anything else: "the Mesa language does not allow condition
    variable notifies outside of monitor locks") and then keeps working
    under the lock — the window in which an immediately-rescheduled
    high-priority notifyee uselessly wakes, fails to get the mutex, and
    blocks again.
    """
    kernel = Kernel(
        KernelConfig(
            seed=seed,
            notify_semantics=notify_semantics,
            race_detection=race_detection,
        )
    )
    lock = Monitor("pc")
    nonempty = ConditionVariable(lock, "nonempty")
    state = {"available": 0, "consumed": 0}

    def consumer():
        while state["consumed"] < items:
            yield Enter(lock)
            try:
                yield from await_condition(nonempty, lambda: state["available"] > 0)
                state["available"] -= 1
                state["consumed"] += 1
            finally:
                yield Exit(lock)

    def producer():
        for _ in range(items):
            yield Enter(lock)
            try:
                state["available"] += 1
                yield Notify(nonempty)
                # Still holding the monitor: the spurious-conflict window.
                yield Compute(usec(100))
            finally:
                yield Exit(lock)
            yield Compute(usec(50))

    kernel.fork_root(consumer, name="consumer", priority=consumer_priority)
    kernel.fork_root(producer, name="producer", priority=producer_priority)
    kernel.run_for(sec(10))
    result = SpuriousResult(
        semantics=notify_semantics,
        items=state["consumed"],
        spurious_conflicts=kernel.stats.spurious_conflicts,
        switches=kernel.stats.switches,
        dispatches=kernel.stats.dispatches,
        race_reports=(
            list(kernel.race_detector.reports) if kernel.race_detector else []
        ),
    )
    kernel.shutdown()
    return result


def run_comparison(**kwargs) -> dict[str, SpuriousResult]:
    return {
        "immediate": run_producer_consumer(notify_semantics="immediate", **kwargs),
        "deferred": run_producer_consumer(notify_semantics="deferred", **kwargs),
    }
