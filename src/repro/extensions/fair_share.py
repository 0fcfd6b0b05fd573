"""Fair-share vs strict-priority scheduling (paper §6.2/§7, future work).

"The SystemDaemon hack pushes the thread model a bit in the direction of
fair-share or proportional scheduling ... a model intuitively better
suited to controlling long-term average behavior than to controlling
moment-by-moment processor allocation to meet near-real-time
requirements."  And the conclusion: "Both strict priority scheduling and
fair-share priority scheduling seem to complicate rather than ease the
programming of highly reactive systems."

The experiment quantifies the trade-off on this kernel, using the
``scheduler_policy="fair_share"`` lottery (tickets double per priority
level, no priority preemption):

* **starvation/inversion side** — Birrell's stable-inversion scenario
  (:func:`repro.casestudies.inversion.run_inversion`, no workarounds):
  under strict priority the high thread starves unless the SystemDaemon
  intervenes; under fair share the low-priority lock holder always gets
  *some* share, so the inversion self-clears with no hacks at all;
* **reactivity side** — the keystroke-echo path under a background load:
  strict priority gives the priority-7 Notifier the CPU the instant a key
  arrives; fair share makes the echo wait for lottery luck and quantum
  boundaries, inflating interactive latency by an order of magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.casestudies.inversion import run_inversion
from repro.kernel import Kernel, KernelConfig
from repro.kernel.primitives import Channelreceive, Compute, GetTime
from repro.kernel.simtime import msec, usec


@dataclass
class ReactivityResult:
    policy: str
    echo_latencies: list[int] = field(default_factory=list)

    @property
    def mean_latency(self) -> float:
        if not self.echo_latencies:
            return 0.0
        return sum(self.echo_latencies) / len(self.echo_latencies)

    @property
    def max_latency(self) -> int:
        return max(self.echo_latencies, default=0)


def run_reactivity(
    *,
    policy: str,
    keystrokes: int = 30,
    key_interval: int = msec(100),
    background_threads: int = 3,
    seed: int = 0,
) -> ReactivityResult:
    """Keystroke handling latency under CPU-bound background load.

    The Notifier (priority 7) handles each key with 200 µs of work; the
    background threads (priority 2) grind continuously.  Strict priority
    preempts for the Notifier immediately; fair share makes it win a
    lottery first.
    """
    kernel = Kernel(KernelConfig(seed=seed, scheduler_policy=policy))
    keyboard = kernel.channel("keyboard")
    result = ReactivityResult(policy=policy)

    def notifier():
        while True:
            pressed_at = yield Channelreceive(keyboard)
            yield Compute(usec(200))  # echo the glyph
            now = yield GetTime()
            result.echo_latencies.append(now - pressed_at)

    def background():
        while True:
            yield Compute(msec(10))

    kernel.fork_root(notifier, name="Notifier", priority=7, role="eternal")
    for index in range(background_threads):
        kernel.fork_root(background, name=f"bg{index}", priority=2,
                         role="eternal")

    def post_key(k):
        keyboard.post(k.now)

    for i in range(keystrokes):
        kernel.post_at((i + 1) * key_interval + usec(137), post_key)
    kernel.run_for((keystrokes + 5) * key_interval)
    kernel.shutdown()
    return result


def run_tradeoff(**kwargs) -> dict[str, dict[str, object]]:
    """Both sides of the ledger, both policies."""
    summary: dict[str, dict[str, object]] = {}
    for policy in ("strict", "fair_share"):
        inversion = run_inversion(policy=policy)
        reactivity = run_reactivity(policy=policy, **kwargs)
        summary[policy] = {
            "inversion_acquired_at": inversion.acquired_at,
            "echo_mean": reactivity.mean_latency,
            "echo_max": reactivity.max_latency,
        }
    return summary
