"""The scenario compiler: millions of open-loop clients, zero threads.

A :class:`ClientClass` describes a *population* — say 1.2 million
browsers each issuing 0.0015 requests/second — and the compiler installs
it as **one** self-rescheduling kernel event chain, not one thread (or
even one event chain) per client.  The superposition of N independent
Poisson processes at rate ``r`` is a Poisson process at rate ``N*r``,
and a time-varying shape turns it into a non-homogeneous Poisson
process, simulated exactly by *thinning*: draw candidate arrivals at the
shape's peak rate, accept each with probability ``rate(t) / peak``.
Cost is O(arrival events), so a million clients run at the same
wall-clock order as the pinned four-tenant mixes.

Determinism: each class forks three independent RNG streams off the
kernel seed (thinning, stragglers, resubmits), so the accepted arrival
schedule of a class is a pure function of ``(seed, frontend, class)``
— :func:`arrival_times` replays it without a kernel, which is what the
property tests pin against the live run.

Two per-arrival refinements keep the aggregation honest:

* **Stragglers** — with probability ``straggler_prob`` the client is
  slow to get the request out (radio wakeup, overloaded browser): the
  submission is delayed by an exponential stall but carries the
  original *intended* time, so the PR-5 CO-aware accounting charges the
  stall to the recorded latency, not to the server's deadline.
* **Retry storms** — open-loop clients that resubmit on shed.  A shed
  verdict normally ends an open-loop request (nobody is waiting); with
  ``resubmit_prob`` the class's :class:`ResubmitSink` schedules a
  backoff-delayed re-mint instead.  Shed -> resubmit -> more load ->
  more shed is the metastable-failure loop, and because resubmits carry
  the original intended time, the tail it causes stays on the books.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.kernel.rng import DeterministicRng
from repro.kernel.simtime import msec
from repro.server.model import FAILED, SHED, TenantSpec
from repro.workload.shapes import Constant, LoadShape


@dataclass(frozen=True)
class ClientClass:
    """One simulated client population sharing a tenant envelope."""

    tenant: TenantSpec
    #: Population size — millions are fine; cost is per *arrival*.
    clients: int
    #: Per-client request rate (requests/second) at shape value 1.0.
    rate_per_client: float
    shape: LoadShape = field(default_factory=Constant)
    #: Probability a shed verdict is resubmitted (open-loop retry storm).
    resubmit_prob: float = 0.0
    resubmit_backoff: int = msec(40)
    max_resubmits: int = 2
    #: Slow-client model: probability an accepted arrival stalls before
    #: submission, and the mean of the exponential stall.
    straggler_prob: float = 0.0
    straggler_stall: int = msec(150)

    @property
    def name(self) -> str:
        return self.tenant.name

    def rate_per_sec(self, t: int) -> float:
        """Aggregate offered rate (requests/second) at sim-time ``t``."""
        return self.clients * self.rate_per_client * self.shape.value(t)

    @property
    def peak_per_sec(self) -> float:
        """The thinning envelope: peak aggregate rate."""
        return self.clients * self.rate_per_client * self.shape.peak()


def arrival_times(
    cls: ClientClass,
    seed: int,
    until: int,
    *,
    frontend_name: str = "lb",
) -> list[int]:
    """The class's accepted arrival schedule, without a kernel.

    ``frontend_name`` must match the name of the frontend the class was
    installed on (the thinning stream is forked per frontend): ``"lb"``
    for a bare cluster balancer, ``"cache"`` for a cache-tier scenario.

    Replays exactly the draws :func:`install_workload`'s event chain
    makes (same forked stream, same order: inter-arrival then thinning
    accept), so the live world's per-tenant ``offered`` count equals
    ``len(arrival_times(...))`` for classes without resubmits.
    """
    rng = _thinning_rng(seed, frontend_name, cls)
    peak_sec = cls.peak_per_sec
    if peak_sec <= 0:
        return []
    peak_usec = peak_sec / 1_000_000.0
    times: list[int] = []
    t = rng.expovariate(peak_usec)
    while t < until:
        if rng.uniform() * peak_sec <= cls.rate_per_sec(t):
            times.append(t)
        t += rng.expovariate(peak_usec)
    return times


def _thinning_rng(
    seed: int, frontend_name: str, cls: ClientClass
) -> DeterministicRng:
    return DeterministicRng(seed).fork(f"{frontend_name}:agg:{cls.name}")


class ResubmitSink:
    """Open-loop shed handling: count give-ups, maybe storm back.

    Installed as ``reply_to`` on every request the compiler mints, so
    shed/failed/done verdicts flow here instead of vanishing.  ``put``
    is a generator (the frontend calls it via ``yield from``) but never
    blocks: a resubmission is a *posted kernel event*, like every other
    open-loop arrival — no thread exists to wait out the backoff.
    """

    def __init__(self, frontend: Any, cls: ClientClass, rng: DeterministicRng):
        self.frontend = frontend
        self.cls = cls
        self.rng = rng
        #: rid -> resubmissions already spent on this operation.
        self.attempts: dict[str, int] = {}
        self.resubmitted = 0
        self.give_ups = 0
        self.completed = 0
        self.failed = 0

    def put(self, msg: tuple):
        verdict, req = msg
        spent = self.attempts.pop(req.rid, 0)
        if verdict == SHED:
            if (
                self.cls.resubmit_prob > 0.0
                and spent < self.cls.max_resubmits
                and self.rng.chance(self.cls.resubmit_prob)
            ):
                self._schedule_resubmit(req, spent)
            else:
                self.give_ups += 1
                self.frontend.stats.bump(self.cls.name, "give_ups")
        elif verdict == FAILED:
            self.failed += 1
        else:
            self.completed += 1
        return True
        yield  # pragma: no cover - generator protocol; never reached

    def _schedule_resubmit(self, req: Any, spent: int) -> None:
        self.resubmitted += 1
        frontend = self.frontend
        tenant = self.cls.tenant
        backoff = self.cls.resubmit_backoff * (2 ** spent)
        backoff += self.rng.randint(0, self.cls.resubmit_backoff)
        intended = req.intended

        def resubmit(k: Any) -> None:
            fresh = frontend.make_request(
                tenant,
                k.now,
                reply_to=self,
                intended=intended,
            )
            self.attempts[fresh.rid] = spent + 1
            frontend.stats.bump(tenant.name, "client_retries")
            frontend.stats.bump(tenant.name, "offered")
            frontend.net.post(fresh)

        frontend.kernel.post_at(frontend.kernel.now + backoff, resubmit)


def install_workload(
    frontend: Any, classes: tuple[ClientClass, ...]
) -> dict[str, ResubmitSink]:
    """Install every class's aggregate arrival chain on ``frontend``.

    One timer pump per class: each event draws the next candidate
    inter-arrival at the peak rate, thins against the shape, and (when
    accepted) mints and posts a request — exactly the
    :func:`repro.server.clients.install_open_loop` pattern generalized
    to non-homogeneous rates and million-client populations.  Returns
    the per-class resubmit sinks for reporting.
    """
    seed = frontend.kernel.config.seed
    sinks: dict[str, ResubmitSink] = {}
    for cls in classes:
        sink = ResubmitSink(
            frontend,
            cls,
            DeterministicRng(seed).fork(f"{frontend.name}:resubmit:{cls.name}"),
        )
        sinks[cls.name] = sink
        _install_class(frontend, cls, sink)
    return sinks


def _install_class(
    frontend: Any, cls: ClientClass, sink: ResubmitSink
) -> None:
    """One class's self-rescheduling arrival chain.

    A separate function per class so ``arrive``'s self-reference closes
    over *this* call's scope — rescheduling inside a shared loop body
    would leave every chain re-posting the last class's ``arrive``.
    """
    kernel = frontend.kernel
    seed = kernel.config.seed
    peak_sec = cls.peak_per_sec
    if peak_sec <= 0:
        return
    rng = _thinning_rng(seed, frontend.name, cls)
    straggler_rng = DeterministicRng(seed).fork(
        f"{frontend.name}:straggler:{cls.name}"
    )
    peak_usec = peak_sec / 1_000_000.0
    tenant = cls.tenant
    stall_rate = 1.0 / max(1, cls.straggler_stall)

    def arrive(k: Any) -> None:
        if rng.uniform() * peak_sec <= cls.rate_per_sec(k.now):
            if cls.straggler_prob > 0.0 and straggler_rng.chance(
                cls.straggler_prob
            ):
                # The client meant to send now but stalls; the
                # intended time rides along so CO-aware accounting
                # charges the stall to the recorded latency.
                stall = straggler_rng.expovariate(stall_rate)
                intended = k.now

                def mint(k2: Any) -> None:
                    req = frontend.make_request(
                        tenant, k2.now, reply_to=sink, intended=intended
                    )
                    frontend.stats.bump(tenant.name, "offered")
                    frontend.net.post(req)

                k.post_at(k.now + stall, mint)
            else:
                req = frontend.make_request(tenant, k.now, reply_to=sink)
                frontend.stats.bump(tenant.name, "offered")
                frontend.net.post(req)
        k.post_at(k.now + rng.expovariate(peak_usec), arrive)

    kernel.post_at(kernel.now + rng.expovariate(peak_usec), arrive)
