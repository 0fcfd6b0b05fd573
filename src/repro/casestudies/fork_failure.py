"""Case study (Section 5.4): when a FORK fails.

"Earlier versions of the systems would raise an error when a FORK failed:
the standard programming practice was to catch the error and to try to
recover, but good recovery schemes seem never to have been worked out.
...  Our more recent implementations simply wait in the fork
implementation for more resources to become available, but the behaviors
seen by the user, such as long delays in response or even complete
unresponsiveness, go unexplained."

The experiment saturates a tiny thread table with a burst of requests and
measures what each policy does to the request stream: the ``raise``
policy drops work (errors surface, recovery is ad hoc); the ``wait``
policy completes everything but with long, unexplained latency tails.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel import ForkFailed, Kernel, KernelConfig
from repro.kernel.primitives import GET_TIME, Compute, Fork
from repro.kernel.simtime import msec, sec, usec


@dataclass
class ForkFailureResult:
    policy: str
    requests: int
    completed: int
    failures: int
    latencies: list[int] = field(default_factory=list)

    @property
    def max_latency(self) -> int:
        return max(self.latencies, default=0)

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)


def run_fork_storm(
    *,
    policy: str,
    requests: int = 30,
    max_threads: int = 8,
    seed: int = 0,
) -> ForkFailureResult:
    """Fire a burst of fork-per-request work at a saturated thread table."""
    kernel = Kernel(
        KernelConfig(seed=seed, fork_failure=policy, max_threads=max_threads)
    )
    done: list[int] = []
    failures = [0]

    def job(issued_at: int):
        yield Compute(msec(20))
        now = yield GET_TIME
        done.append(now - issued_at)

    def dispatcher():
        for _ in range(requests):
            issued_at = yield GET_TIME
            try:
                yield Fork(job, args=(issued_at,), detached=True)
            except ForkFailed:
                failures[0] += 1  # ad hoc "recovery": drop the request
            yield Compute(usec(50))

    kernel.fork_root(dispatcher, name="dispatcher", priority=5)
    kernel.run_for(sec(30))
    result = ForkFailureResult(
        policy=policy,
        requests=requests,
        completed=len(done),
        failures=failures[0],
        latencies=done,
    )
    kernel.shutdown()
    return result


def run_comparison(**kwargs) -> dict[str, ForkFailureResult]:
    return {
        "raise": run_fork_storm(policy="raise", **kwargs),
        "wait": run_fork_storm(policy="wait", **kwargs),
    }
