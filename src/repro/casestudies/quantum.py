"""Case study C2 (Section 6.3): the effect of the time-slice quantum.

"What we did not realize for a long time is that it is the 50 millisecond
quantum that is clocking the sending of the X requests from the buffer
thread. ...  For instance, if the quantum were 1 second, then X events
would be buffered for one second before being sent and the user would
observe very bursty screen painting.  If the quantum were 1 millisecond,
then the YieldButNotToMe would yield only very briefly and we would be
back to the start of our problems again."

And for the sleep alternative: "the smallest sleep interval is the
remainder of the scheduler quantum.  Our 50 millisecond quantum is a
little bit too long for snappy keyboard echoing ...  However, if the
scheduler quantum were 20 milliseconds, using a timeout instead of a
yield in the buffer thread would work fine."

``sweep_quantum`` reruns the echo pipeline across quanta for a given
strategy so the bench can show: latency exploding at 1 s, merging
collapsing at 1 ms (for ybntm), and the sleep strategy becoming viable
at 20 ms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.casestudies.echo_pipeline import EchoResult, run_echo_pipeline
from repro.kernel.simtime import msec, sec

#: The paper's four discussion points.
PAPER_QUANTA = (msec(1), msec(20), msec(50), sec(1))


@dataclass
class QuantumSweep:
    strategy: str
    results: dict[int, EchoResult] = field(default_factory=dict)


def sweep_quantum(
    strategy: str,
    quanta: tuple[int, ...] = PAPER_QUANTA,
    **kwargs,
) -> QuantumSweep:
    """Run the echo pipeline at each quantum.

    For the ``sleep`` strategy the buffer thread sleeps "for a timed
    interval, instead of doing a yield"; Pause(0) wakes at the next tick,
    which is exactly "the remainder of the scheduler quantum".
    """
    # Saturated typing/line-drawing: the imaging thread is continuously
    # busy, so the buffer thread only regains the CPU when its donation
    # (or sleep) expires at a tick — "it is the 50 millisecond quantum
    # that is clocking the sending of the X requests".
    kwargs.setdefault("keystrokes", 120)
    kwargs.setdefault("key_interval", msec(8))
    sweep = QuantumSweep(strategy=strategy)
    for quantum in quanta:
        sweep.results[quantum] = run_echo_pipeline(
            strategy=strategy,
            quantum=quantum,
            **kwargs,
        )
    return sweep
