"""Case study C4 (Section 6.2): stable priority inversion.

"Birrell describes a stable priority inversion in which a high priority
thread waits on a lock held by a low priority thread that is prevented
from running by a middle-priority cpu hog.  ...  The problem is not
hypothetical: we experienced enough real problems with priority
inversions that we found it necessary to put the following two
workarounds into our systems": metalock cycle donation and the
SystemDaemon's random directed yields.

The experiment builds Birrell's three-thread scenario and runs it four
ways:

* ``bare`` — strict priority: the high thread starves (stable inversion);
* ``daemon`` — with the SystemDaemon: the random donations eventually let
  the low thread exit the monitor (the paper's deployed workaround);
* ``inheritance`` — with the beyond-paper priority-inheritance ablation:
  the owner is boosted and the inversion clears almost immediately;
* ``daemon+inheritance`` — both.

``policy`` swaps the scheduler: the fair-share extension
(:mod:`repro.extensions.fair_share`) runs the bare scenario under
``"fair_share"``, where the inversion clears by itself.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel import Kernel, KernelConfig
from repro.kernel.primitives import GET_TIME, Compute, Pause
from repro.kernel.simtime import msec, sec
from repro.runtime.daemon import install_system_daemon
from repro.sync.monitor import Monitor


@dataclass
class InversionResult:
    variant: str
    #: When the high-priority thread finally got the lock (None: starved).
    acquired_at: int | None
    #: How long the high thread was blocked on the mutex.
    blocked_for: int | None
    run_length: int


def run_inversion(
    *,
    daemon: bool = False,
    inheritance: bool = False,
    run_length: int = sec(5),
    daemon_period: int = msec(200),
    hold_time: int = msec(2),
    seed: int = 0,
    policy: str = "strict",
) -> InversionResult:
    """Run Birrell's scenario once; see module docstring for variants."""
    kernel = Kernel(
        KernelConfig(
            seed=seed,
            monitor_priority_inheritance=inheritance,
            scheduler_policy=policy,
        )
    )
    lock = Monitor("inverted")
    marks: dict[str, int] = {}

    def low():
        yield lock.enter
        try:
            # Sleep briefly so the hog and the high thread reliably start
            # while we hold the lock, then grind under it.
            yield Pause(msec(50))
            yield Compute(hold_time)
        finally:
            yield lock.exit

    def hog():
        while True:
            yield Compute(msec(10))

    def high():
        marks["wanted"] = yield GET_TIME
        yield lock.enter
        try:
            marks["acquired"] = yield GET_TIME
        finally:
            yield lock.exit

    kernel.fork_root(low, name="low", priority=2)
    kernel.post_at(msec(10), lambda k: k.fork_root(hog, name="hog", priority=4))
    kernel.post_at(msec(20), lambda k: k.fork_root(high, name="high", priority=6))
    if daemon:
        install_system_daemon(kernel, period=daemon_period)
    kernel.run_for(run_length)

    acquired = marks.get("acquired")
    blocked_for = None
    if acquired is not None:
        blocked_for = acquired - marks["wanted"]
    variant = {
        (False, False): "bare",
        (True, False): "daemon",
        (False, True): "inheritance",
        (True, True): "daemon+inheritance",
    }[(daemon, inheritance)]
    kernel.shutdown()
    return InversionResult(
        variant=variant,
        acquired_at=acquired,
        blocked_for=blocked_for,
        run_length=run_length,
    )


def run_all_variants(**kwargs) -> dict[str, InversionResult]:
    return {
        "bare": run_inversion(**kwargs),
        "daemon": run_inversion(daemon=True, **kwargs),
        "inheritance": run_inversion(inheritance=True, **kwargs),
        "daemon+inheritance": run_inversion(
            daemon=True, inheritance=True, **kwargs
        ),
    }
