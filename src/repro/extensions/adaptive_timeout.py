"""Adaptive timeouts (paper §5.5, future work).

"We found many instances of timeouts and pauses with ridiculous values.
These values presumably were chosen with some particular now-obsolete
processor speed or network architecture in mind. ...  dynamically tuning
application timeout values based on end-to-end system performance may be
a workable solution."

:class:`AdaptiveTimeout` is that solution, built like a TCP
retransmission timer: it tracks the smoothed response time (SRTT) and
variance (RTTVAR) of observed completions and proposes

    timeout = srtt + K * rttvar     (clamped to [floor, ceiling])

:func:`run_rpc_experiment` quantifies the §5.5 failure mode.  A client
calls a server and treats a timeout as failure-detection.  The timeout
constant was tuned for one "server generation"; the experiment then runs
it against servers 10x faster and 10x slower (the passage of hardware
time) and against a crashed server:

* a fixed timeout tuned for the old, slow server detects a crash slowly
  on new hardware (the "ridiculous value" problem in reverse);
* a fixed timeout tuned for fast hardware fires spuriously on slow
  hardware, turning healthy calls into false failures;
* the adaptive timer tracks whatever hardware it lands on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.kernel import Kernel, KernelConfig
from repro.kernel.primitives import GET_TIME, Channelreceive, Compute
from repro.kernel.simtime import msec, sec

#: RFC 6298's gains: ALPHA smooths SRTT, BETA smooths RTTVAR, and K
#: scales RTTVAR into the timeout's safety margin.
ALPHA, BETA, K = 0.125, 0.25, 4.0


class AdaptiveTimeout:
    """An RTO-style timeout estimator over observed response times."""

    def __init__(
        self,
        *,
        initial: int = msec(500),
        floor: int = msec(50),
        ceiling: int = sec(30),
    ) -> None:
        if floor <= 0 or ceiling < floor:
            raise ValueError("need 0 < floor <= ceiling")
        self.floor = floor
        self.ceiling = ceiling
        self._srtt: float | None = None
        self._rttvar: float = initial / 2
        self._initial = initial
        self.samples = 0

    def observe(self, response_time: int) -> None:
        """Feed one observed end-to-end completion time."""
        if response_time < 0:
            raise ValueError("response time must be >= 0")
        self.samples += 1
        if self._srtt is None:
            self._srtt = float(response_time)
            self._rttvar = response_time / 2
            return
        deviation = abs(self._srtt - response_time)
        self._rttvar = (1 - BETA) * self._rttvar + BETA * deviation
        self._srtt = (1 - ALPHA) * self._srtt + ALPHA * response_time

    @property
    def timeout(self) -> int:
        """The currently recommended timeout."""
        if self._srtt is None:
            return self._initial
        raw = self._srtt + K * max(self._rttvar, 1.0)
        return max(self.floor, min(self.ceiling, round(raw)))


@dataclass
class RpcResult:
    policy: str
    server_speed: str
    calls: int
    completed: int
    spurious_timeouts: int
    #: Time to notice the crashed server (end-of-experiment phase).
    crash_detection_time: int | None = None
    final_timeout: int = 0
    timeouts_used: list[int] = field(default_factory=list)


def run_rpc_experiment(
    *,
    policy: str,                # "fixed" or "adaptive"
    fixed_timeout: int = msec(500),
    server_response: int = msec(40),
    calls: int = 40,
    seed: int = 0,
) -> RpcResult:
    """A client RPC loop against a jittery server, then a crash.

    The server answers in ``server_response`` ± 50% jitter.  After
    ``calls`` successful rounds the server dies; the result records how
    long the client's current timeout takes to notice.
    """
    kernel = Kernel(KernelConfig(seed=seed, quantum=msec(10)))
    rng = kernel.rng.fork("server")
    request_channel = kernel.channel("rpc.requests")
    reply_channel = kernel.channel("rpc.replies")
    adaptive = AdaptiveTimeout(initial=fixed_timeout, floor=msec(20))
    result = RpcResult(policy=policy, server_speed=f"{server_response}us",
                       calls=calls, completed=0, spurious_timeouts=0)
    crashed = {"at": None, "noticed": None}

    def server():
        served = 0
        while served < calls:
            request = yield Channelreceive(request_channel)
            jitter = rng.randint(server_response // 2, (server_response * 3) // 2)
            yield Compute(jitter)
            reply_channel.post(("reply", request))
            served += 1
        # Served its quota: the server "crashes" (stops answering).
        crashed["at"] = yield GET_TIME
        while True:
            yield Channelreceive(request_channel)  # reads, never replies

    def client():
        sequence = 0
        while result.completed < calls or crashed["noticed"] is None:
            timeout = (
                adaptive.timeout if policy == "adaptive" else fixed_timeout
            )
            result.timeouts_used.append(timeout)
            sequence += 1
            sent_at = yield GET_TIME
            request_channel.post(("request", sequence))
            reply = yield Channelreceive(reply_channel, timeout=timeout)
            now = yield GET_TIME
            if reply is not None:
                result.completed += 1
                if policy == "adaptive":
                    adaptive.observe(now - sent_at)
            elif crashed["at"] is None:
                # The server was alive: this timeout was spurious.
                result.spurious_timeouts += 1
            else:
                crashed["noticed"] = now
                break

    kernel.fork_root(server, name="server", priority=4)
    kernel.fork_root(client, name="client", priority=4)
    kernel.run_for(sec(120))
    if crashed["noticed"] is not None and crashed["at"] is not None:
        result.crash_detection_time = crashed["noticed"] - crashed["at"]
    result.final_timeout = (
        adaptive.timeout if policy == "adaptive" else fixed_timeout
    )
    kernel.shutdown()
    return result


def run_generations() -> dict[str, dict[str, RpcResult]]:
    """Run fixed (tuned for one generation) vs adaptive across hardware
    generations — the §5.5 "now-obsolete processor speed" scenario.

    ``tuned_for`` is the fixed timeout someone once calibrated for the
    slow machine (10x its typical response).
    """
    tuned_for = msec(400)
    speeds = {
        "old-slow": msec(40),    # the machine the constant was tuned on
        "new-fast": msec(4),     # a decade of hardware later
        "loaded": msec(160),     # same machine under heavy load
        # A remote server behind a congested link: tail responses exceed
        # the old constant, so the fixed timer misfires on perfectly
        # healthy calls.
        "degraded": msec(320),
    }
    results: dict[str, dict[str, RpcResult]] = {}
    for label, response in speeds.items():
        results[label] = {
            "fixed": run_rpc_experiment(
                policy="fixed", fixed_timeout=tuned_for,
                server_response=response,
            ),
            "adaptive": run_rpc_experiment(
                policy="adaptive", fixed_timeout=tuned_for,
                server_response=response,
            ),
        }
    return results
