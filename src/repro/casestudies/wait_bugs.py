"""Case study C6 (Section 5.3): the two questionable WAIT practices.

First: "we saw many instances of WAIT code that did not recheck the
predicate associated with the condition variable. ...  The IF-based
approach will work in Mesa with sufficient constraints on the number and
behavior of the threads using the monitor, but its use cannot be
recommended."  ``run_if_wait_bug`` builds the situation where the
constraint breaks — two consumers, one item, a BROADCAST — and shows the
IF-waiter consuming from an empty queue while the WHILE-waiter is immune.

Second: "there were cases where timeouts had been introduced to
compensate for missing NOTIFYs (bugs), instead of fixing the underlying
problem.  The problem with this is that the system can become timeout
driven — it apparently works correctly but slowly."
``run_missing_notify`` measures exactly that: the buggy producer forgets
to NOTIFY; with a CV timeout the consumer still drains the queue, but at
timeout granularity instead of at production rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel import Kernel, KernelConfig
from repro.kernel.primitives import Broadcast, Compute, GetTime, Notify, Pause, Wait
from repro.kernel.simtime import msec, sec, usec
from repro.sync.condition import (
    ConditionVariable,
    await_condition,
    await_condition_if_broken,
)
from repro.sync.monitor import Monitor


@dataclass
class IfWaitResult:
    style: str  # "if" or "while"
    underflows: int  # times a consumer proceeded with nothing to consume
    consumed: int


def run_if_wait_bug(*, style: str, seed: int = 0) -> IfWaitResult:
    """Two consumers, one produced item, BROADCAST wake.

    Both consumers wake; only one finds an item.  The WHILE-style waiter
    re-waits; the IF-style waiter barrels ahead and underflows.
    """
    if style not in ("if", "while"):
        raise ValueError("style must be 'if' or 'while'")
    kernel = Kernel(KernelConfig(seed=seed))
    lock = Monitor("store")
    nonempty = ConditionVariable(lock, "nonempty", timeout=sec(1))
    state = {"items": 0, "underflows": 0, "consumed": 0}

    waiter = await_condition if style == "while" else await_condition_if_broken

    def consumer(tag):
        yield lock.enter
        try:
            yield from waiter(nonempty, lambda: state["items"] > 0)
            # An IF-waiter reaches here believing the condition holds.
            if state["items"] > 0:
                state["items"] -= 1
                state["consumed"] += 1
            else:
                state["underflows"] += 1
        finally:
            yield lock.exit

    def producer():
        yield Pause(msec(100))  # let both consumers park on the CV
        yield lock.enter
        try:
            state["items"] += 1
            yield Broadcast(nonempty)  # wakes *both* waiters
        finally:
            yield lock.exit

    kernel.fork_root(consumer, args=("a",), name="consumer-a")
    kernel.fork_root(consumer, args=("b",), name="consumer-b")
    kernel.fork_root(producer, name="producer")
    kernel.run_for(sec(3))
    result = IfWaitResult(
        style=style, underflows=state["underflows"], consumed=state["consumed"]
    )
    kernel.shutdown()
    return result


@dataclass
class MissingNotifyResult:
    notify_present: bool
    items: int
    completion_time: int | None
    throughput_per_sec: float


def run_missing_notify(
    *,
    notify_present: bool,
    items: int = 20,
    cv_timeout: int = msec(100),
    quantum: int = msec(50),
    seed: int = 0,
) -> MissingNotifyResult:
    """A producer/consumer where the producer's NOTIFY is present or
    forgotten; the CV timeout masks the bug at a heavy latency cost."""
    kernel = Kernel(KernelConfig(seed=seed, quantum=quantum))
    lock = Monitor("queue")
    nonempty = ConditionVariable(lock, "nonempty", timeout=cv_timeout)
    state = {"available": 0, "consumed": 0}
    finished: dict[str, int] = {}

    def producer():
        for _ in range(items):
            yield lock.enter
            try:
                state["available"] += 1
                if notify_present:
                    yield Notify(nonempty)
                # else: the bug — the waiter is never notified.
            finally:
                yield lock.exit
            yield Compute(usec(100))

    def consumer():
        while state["consumed"] < items:
            yield lock.enter
            try:
                while state["available"] == 0:
                    yield Wait(nonempty)  # wakes by notify or by timeout
                state["available"] -= 1
                state["consumed"] += 1
            finally:
                yield lock.exit
        finished["at"] = yield GetTime()

    kernel.fork_root(consumer, name="consumer")
    kernel.fork_root(producer, name="producer")
    kernel.run_for(sec(60))
    completion = finished.get("at")
    throughput = 0.0
    if completion:
        throughput = state["consumed"] * 1_000_000 / completion
    result = MissingNotifyResult(
        notify_present=notify_present,
        items=state["consumed"],
        completion_time=completion,
        throughput_per_sec=throughput,
    )
    kernel.shutdown()
    return result
