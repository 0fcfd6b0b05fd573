"""Case study C7 (Section 5.5): weak memory ordering hazards.

Example 1 — pointer publication: "imagine a thread that once a minute
constructs a record of time-date values and stores a pointer to that
record into a global variable.  Under the assumptions of strong ordering
and atomic write of the pointer value, this is safe.  Under weak
ordering, readers of the global variable can follow a pointer to a record
that has not yet had its fields filled in."

Example 2 — init-once: "Birrell offers a performance hint for calling an
initialization routine exactly once.  Under weak ordering, a thread can
both believe that the initializer has already been called and not yet be
able to see the initialized data."

Each experiment runs on a 2-CPU kernel under the ``model=`` it is given
(see :mod:`repro.memmodel`), optionally with the repair — monitor
protection, whose implicit fences restore safety ("The monitor
implementation for weak ordering can use memory barrier instructions"),
or an explicit fence.  The per-model outcome is itself a finding worth
pinning: under ``pso`` (per-variable-FIFO buffers, the §5.5 machine)
both hazards occur, while under ``tso`` *neither* can — x86-TSO's
whole-buffer FIFO commits the record's fields before the pointer and
``data`` before ``done``, so the paper's two examples are exactly the
idioms TSO was designed to rescue.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel import Kernel, KernelConfig, SimVar
from repro.kernel.primitives import (
    Compute,
    MemRead,
    MemWrite,
    Pause,
)
from repro.kernel.simtime import msec, sec, usec
from repro.sync.monitor import Monitor


def _make_config(model: str, *, seed: int, race_detection: bool) -> KernelConfig:
    """The 2-CPU experiment config under memory model ``model``."""
    return KernelConfig(
        seed=seed,
        ncpus=2,
        memory_model=model,
        store_buffer_delay=usec(20),
        race_detection=race_detection,
    )


@dataclass
class PublicationResult:
    model: str
    monitored: bool
    reads: int
    torn_reads: int  # pointer seen, fields not yet visible
    #: RaceReports when run with ``race_detection=True`` (else empty).
    race_reports: list = field(default_factory=list)


def run_publication(
    *,
    model: str,
    monitored: bool = False,
    rounds: int = 50,
    seed: int = 0,
    race_detection: bool = False,
) -> PublicationResult:
    """The time-date record publication loop on two CPUs."""
    config = _make_config(model, seed=seed, race_detection=race_detection)
    kernel = Kernel(config)
    pointer = SimVar("global-record", initial=None)
    lock = Monitor("record-lock") if monitored else None
    torn = [0]
    reads = [0]

    def writer():
        for round_number in range(1, rounds + 1):
            fields = SimVar(f"record-{round_number}", initial=None)
            if lock is not None:
                yield lock.enter
            # Fill in the record, then publish the pointer.
            yield MemWrite(fields, ("seconds", round_number))
            yield MemWrite(pointer, fields)
            if lock is not None:
                yield lock.exit
            yield Pause(msec(10))

    def reader():
        seen: set[int] = set()
        while len(seen) < rounds:
            if lock is not None:
                yield lock.enter
            record = yield MemRead(pointer)
            # Keyed by uid: a freed record's id() can be reused by the next.
            if record is not None and record.uid not in seen:
                # A fresh record was published: follow the pointer.
                contents = yield MemRead(record)
                seen.add(record.uid)
                reads[0] += 1
                if contents is None:
                    torn[0] += 1  # followed the pointer into a hole
            if lock is not None:
                yield lock.exit
            yield Compute(usec(7))

    kernel.fork_root(writer, name="writer")
    kernel.fork_root(reader, name="reader")
    kernel.run_for(sec(10))
    result = PublicationResult(
        model=model,
        monitored=monitored,
        reads=reads[0],
        torn_reads=torn[0],
        race_reports=(
            list(kernel.race_detector.reports) if kernel.race_detector else []
        ),
    )
    kernel.shutdown()
    return result


@dataclass
class InitOnceResult:
    model: str
    fenced: bool
    saw_uninitialised: bool
    #: RaceReports when run with ``race_detection=True`` (else empty).
    race_reports: list = field(default_factory=list)


def run_init_once(
    *,
    model: str,
    fenced: bool = False,
    seed: int = 0,
    race_detection: bool = False,
) -> InitOnceResult:
    """Birrell's init-once hint on two CPUs.

    Thread A initialises and sets the done flag (publishing both through
    plain stores); thread B spins on the flag and then reads the data.
    Under ``pso`` B can see ``done`` before ``data``.  ``fenced``
    adds the explicit barrier that repairs the idiom.
    """
    from repro.kernel.primitives import Fence

    config = _make_config(model, seed=seed, race_detection=race_detection)
    kernel = Kernel(config)
    data = SimVar("init-data", initial=None)
    done = SimVar("init-done", initial=False)
    observed = {"uninitialised": False}

    def initialiser():
        yield Compute(usec(5))
        yield MemWrite(data, "initialised-value")
        if fenced:
            yield Fence()
        yield MemWrite(done, True)
        yield Compute(usec(100))

    def consumer():
        while True:
            flag = yield MemRead(done)
            if flag:
                break
            yield Compute(usec(3))
        value = yield MemRead(data)
        if value is None:
            observed["uninitialised"] = True

    kernel.fork_root(initialiser, name="initialiser")
    kernel.fork_root(consumer, name="consumer")
    kernel.run_for(sec(1))
    result = InitOnceResult(
        model=model,
        fenced=fenced,
        saw_uninitialised=observed["uninitialised"],
        race_reports=(
            list(kernel.race_detector.reports) if kernel.race_detector else []
        ),
    )
    kernel.shutdown()
    return result
