"""The request frontend, and the RPC server built on it.

:class:`Frontend` is what every layer that takes requests shares: the
server below, the cluster's :class:`~repro.cluster.balancer.LoadBalancer`
and the :class:`~repro.cluster.cache.CacheTier`.  It owns the ingress
fields, request minting, custody, and the one method where a request
reaches its verdict.

The RPC server proper is pump -> admission queue -> worker pool.  Every
moving part is one of the paper's paradigms doing its day job:

* a listener :class:`~repro.paradigms.pump.Pump` moves arrivals from the
  network channel into the ingress queue (devices feed channels, threads
  drain queues — the Section 4.2 pipeline shape);
* an admission **router** thread applies backpressure policy at the
  mouth of a :class:`~repro.sync.queues.BoundedQueue` — full means shed,
  not grow (the queue says no so the tail latency doesn't have to);
* a pool of **worker** threads drains the admission queue with *timed*
  gets, so a stolen NOTIFY under fault injection degrades to a one-tick
  stall instead of a wedged pool;
* **ordered** tenants route to a per-tenant serializer thread (Section
  4.3's serializer: concurrency traded away for order, per tenant, not
  globally);
* **write** requests ride a :class:`~repro.paradigms.slack.SlackProcess`
  that merges same-key writes before paying the per-batch cost (Section
  5.2's X-server buffer thread, recast as a write-behind batcher);
* a deadline **sleeper** sweeps expired requests out of the queues every
  scheduler tick and forks one-shot retry threads with jittered
  exponential backoff (Section 4.3 sleepers + one-shots).
"""

from __future__ import annotations

from typing import Any

from repro.kernel.primitives import GET_TIME, Compute, Fork, Pause
from repro.kernel.simtime import usec
from repro.paradigms.pump import Pump
from repro.paradigms.slack import SlackProcess
from repro.paradigms.sleeper import Sleeper
from repro.server.model import (
    DONE,
    FAILED,
    PENDING,
    SHED,
    VERDICT_ROWS,
    Request,
    RequestFactory,
    ServerStats,
    TenantSpec,
)
from repro.sync.monitor import Monitor
from repro.sync.queues import BoundedQueue, UnboundedQueue

#: Bookkeeping costs, deliberately small next to request service costs.
ROUTE_COST = usec(20)
LISTEN_COST = usec(10)
TOUCH_COST = usec(15)
BATCH_BASE_COST = usec(120)
BATCH_ITEM_COST = usec(60)
SERIAL_QUEUE_CAPACITY = 16
#: The fixed-cost traps every request yields, built once (traps are
#: immutable).
ROUTE_COMPUTE = Compute(ROUTE_COST)
TOUCH_COMPUTE = Compute(TOUCH_COST)

#: Thread priorities: ingress above the pool so arrivals keep flowing
#: under load, everything >= 4 so round-robin keeps the watchdog's
#: starvation monitor quiet.
PRIO_LISTENER = 6
PRIO_ROUTER = 6
PRIO_SLEEPER = 5
PRIO_POOL = 4


class Frontend:
    """What every request frontend shares: ingress, custody, verdicts.

    A *frontend* is anything the traffic generators in
    :mod:`repro.server.clients` drive.  Its protocol is ``net`` (a
    device channel open-loop arrivals post into), ``ingress`` (a queue
    closed-loop clients put into), :meth:`make_request`, ``stats``,
    ``poll``, ``world``/``kernel`` and ``name``.  :class:`RpcServer`,
    the cluster :class:`~repro.cluster.balancer.LoadBalancer` and the
    :class:`~repro.cluster.cache.CacheTier` are the three; a subclass
    builds ``net`` and ``ingress`` and forks its own threads.

    **Custody** is the set of requests a frontend holds that no queue
    scan can see: requests in a thread's hands (``held``, keyed by rid)
    or between a pipeline stage's get and put (``carry_ledgers``, one
    dict per stage; only the balancer has stages that need one).  The
    custody audit (:func:`repro.cluster.replication.live_requests`)
    reads both, and the queues, on every live frontend.  A retired
    primary holds nothing: promotion must replay its work, so the audit
    does not count what is left in a dead primary's queues.

    **Verdicts.**  A request reaches ``DONE``, ``SHED`` or ``FAILED`` in
    exactly one place, :meth:`_finish`: custody is released, the
    verdict's row is booked, the caller hears ``(verdict, req)`` on
    ``reply_to``, and the ``on_oplog``/``on_outcome`` hooks run.
    """

    def __init__(
        self, world: Any, tenants: tuple[TenantSpec, ...], name: str
    ) -> None:
        self.world = world
        self.kernel = world.kernel
        self.name = name
        self.tenants = {t.name: t for t in tenants}
        self.stats = ServerStats()
        #: Timed-get interval: one scheduler quantum, the kernel's
        #: timeout granularity — anything shorter rounds up to it anyway.
        self.poll = self.kernel.config.quantum
        #: Derived RNG streams: request jitter and retry backoff jitter
        #: are forked per concern so neither perturbs arrival sequences.
        self.factory = RequestFactory(self.kernel.config.seed, name)
        self.retry_rng = self.factory.retry_rng
        #: Requests in a thread's hands or parked in a retry one-shot.
        #: Keyed by rid; a verdict or a retry's re-queue releases.
        #: Pure-dict bookkeeping: never yields, never perturbs schedules.
        self.held: dict[str, Request] = {}
        #: Per-stage carry ledgers (see :class:`UnboundedQueue`'s
        #: ``carry``); a verdict releases the rid from every one.
        self.carry_ledgers: dict[str, dict[str, Request]] = {}
        #: Optional generator-function hook ``(kind, req)`` shipping op-log
        #: records ("admit" / "dispatch" / "complete") to a replica — see
        #: :mod:`repro.cluster.replication`.  None costs nothing.
        self.on_oplog: Any = None
        #: Optional generator-function hook run after every verdict,
        #: passed the request.  The cluster balancer installs its
        #: credit-release notification on its shards; None costs nothing.
        self.on_outcome: Any = None
        #: Threads forked by ``start`` (fault injection targets).
        self.threads: list[Any] = []

    def make_request(
        self,
        tenant: TenantSpec,
        now: int,
        *,
        reply_to: Any = None,
        intended: int | None = None,
    ) -> Request:
        """Mint a request: deterministic rid, jittered cost, write key."""
        return self.factory.make(
            tenant, now, reply_to=reply_to, intended=intended
        )

    def _finish(self, req: Request, verdict: str):
        """Give ``req`` its verdict (generator).

        Every trap here is a preemption point, so the sequence is fixed:
        ``GetTime`` for ``DONE`` only, the reply's put, then the hooks.
        """
        if verdict == DONE:
            now = yield GET_TIME
            req.completed_at = now
            # Latency runs from the *intended* send time (== submitted
            # unless a client carried an earlier intent through
            # resubmits).
            self.stats.note_latency(req.tenant.name, now - req.intended)
        req.status = verdict
        self.held.pop(req.rid, None)
        for ledger in self.carry_ledgers.values():
            ledger.pop(req.rid, None)
        self.stats.bump(req.tenant.name, VERDICT_ROWS[verdict])
        if req.reply_to is not None:
            yield from req.reply_to.put((verdict, req))
        if self.on_oplog is not None:
            yield from self.on_oplog("complete", req)
        if self.on_outcome is not None:
            yield from self.on_outcome(req)

    def _expire(self, req: Request):
        """Deadline passed before service: retry with jittered backoff
        (a one-shot thread) until the tenant's budget runs out."""
        tenant = req.tenant
        self.stats.bump(tenant.name, "timeouts")
        if req.attempt < tenant.max_retries:
            self.stats.bump(tenant.name, "retries")
            self.held[req.rid] = req
            delay = tenant.backoff * (2 ** req.attempt)
            delay += self.retry_rng.randint(0, tenant.backoff)
            yield Fork(
                self._retry_proc,
                (req, delay),
                name=f"{self.name}.retry.{req.rid}.{req.attempt}",
                priority=PRIO_SLEEPER,
                detached=True,
            )
        else:
            yield from self._finish(req, FAILED)

    def _retry_proc(self, req: Request, delay: int):
        """One-shot: back off, rearm (a real retry — budget charged),
        rejoin at the front; the ingress queue has custody from there."""
        yield Pause(delay)
        now = yield GET_TIME
        req.rearm(now)
        yield from self.ingress.put(req)
        self.held.pop(req.rid, None)


class RpcServer(Frontend):
    """A multi-tenant RPC server wired onto a :class:`~repro.runtime.pcr.World`.

    Construction builds the queues; :meth:`start` forks the thread
    population.  Open-loop generators post :class:`Request` objects into
    :attr:`net`; closed-loop clients put directly into :attr:`ingress`.
    """

    def __init__(
        self,
        world: Any,
        tenants: tuple[TenantSpec, ...],
        *,
        workers: int = 4,
        admission_capacity: int = 32,
        name: str = "server",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        super().__init__(world, tenants, name)
        self.workers = workers

        self.net = world.add_device(f"{name}.net")
        self.ingress = UnboundedQueue(f"{name}.ingress")
        self.admission = BoundedQueue(f"{name}.admission", admission_capacity)
        self.serial_queues: dict[str, BoundedQueue] = {
            t.name: BoundedQueue(
                f"{name}.serial.{t.name}", SERIAL_QUEUE_CAPACITY
            )
            for t in tenants
            if t.ordered
        }
        self.batch_queue = UnboundedQueue(
            f"{name}.batch", get_timeout=self.poll
        )
        #: Shared application state workers touch under a monitor, so the
        #: server exercises real lock contention (and the race detector).
        self.table_mon = Monitor(f"{name}.table")
        self.table: dict[str, int] = {}
        #: Requests merged away by the batcher, drained per delivery.
        self._superseded: list[Request] = []

        self.listener = Pump(
            f"{name}.listener",
            self.net,
            self.ingress,
            cost_per_item=LISTEN_COST,
        )
        # Slack: sleep out one quantum so same-key writes pile up before
        # the per-batch cost is paid (latency added, work saved — §5.2).
        self.batcher = SlackProcess(
            f"{name}.batcher",
            self.batch_queue,
            self._deliver_batch,
            merge=self._merge_writes,
            strategy="sleep",
            sleep_interval=self.poll,
            cost_per_batch=BATCH_BASE_COST,
        )
        self.sweeper = Sleeper(
            f"{name}.deadlines", self.poll, self._sweep, work_cost=usec(30)
        )

    # -- population --------------------------------------------------------

    def start(self) -> None:
        """Fork the server's thread population."""
        add = self.threads.append
        add(self.world.add_eternal(
            self.listener.proc, name=self.listener.name, priority=PRIO_LISTENER
        ))
        add(self.world.add_eternal(
            self._router_proc, name=f"{self.name}.router", priority=PRIO_ROUTER
        ))
        add(self.world.add_eternal(
            self.sweeper.proc, name=self.sweeper.name, priority=PRIO_SLEEPER
        ))
        for wid in range(self.workers):
            add(self.world.add_eternal(
                self._drain_proc,
                (self.admission,),
                name=f"{self.name}.worker.{wid}",
                priority=PRIO_POOL,
            ))
        for name, queue in self.serial_queues.items():
            add(self.world.add_eternal(
                self._drain_proc,
                (queue,),
                name=f"{self.name}.serial.{name}",
                priority=PRIO_POOL,
            ))
        add(self.world.add_eternal(
            self.batcher.proc, name=self.batcher.name, priority=PRIO_POOL
        ))

    # -- thread bodies -----------------------------------------------------

    def _router_proc(self):
        """Admission control: ingress -> bounded queue, or shed."""
        while True:
            req = yield from self.ingress.get(timeout=self.poll)
            if req is None:
                continue
            yield ROUTE_COMPUTE
            tenant = req.tenant
            queue = (
                self.serial_queues[tenant.name]
                if tenant.ordered
                else self.admission
            )
            ok = yield from queue.try_put(req)
            if ok:
                self.stats.bump(tenant.name, "admitted")
                if self.on_oplog is not None:
                    yield from self.on_oplog("admit", req)
            else:
                yield from self._finish(req, SHED)

    def _drain_proc(self, queue: BoundedQueue):
        """A pool worker on the admission queue, or an ordered tenant's
        serializer on its private queue (one thread, so the tenant's
        requests complete in submission order): timed get, dispatch."""
        while True:
            req = yield from queue.get(timeout=self.poll)
            if req is None:
                continue
            yield from self._dispatch(req)

    def _dispatch(self, req: Request):
        """Run one admitted request on the calling thread."""
        self.held[req.rid] = req
        now = yield GET_TIME
        if now >= req.expires_at:
            yield from self._expire(req)
            return
        if self.on_oplog is not None:
            yield from self.on_oplog("dispatch", req)
        if req.tenant.writes:
            # Write-behind: hand to the batcher rather than paying the
            # full per-request cost here.
            yield from self.batch_queue.put(req)
            return
        yield self.table_mon.enter
        try:
            yield TOUCH_COMPUTE
            self.table[req.tenant.name] = self.table.get(req.tenant.name, 0) + 1
        finally:
            yield self.table_mon.exit
        yield Compute(req.cost)
        yield from self._finish(req, DONE)

    # -- batching ----------------------------------------------------------

    def _merge_writes(self, items: list[Request]) -> list[Request]:
        """Keep the latest write per key; stash the superseded ones so
        the delivery step can complete (and count) them too."""
        merged: dict[Any, Request] = {}
        for req in items:
            prev = merged.get(req.key)
            if prev is not None:
                self._superseded.append(prev)
            merged[req.key] = req
        return list(merged.values())

    def _deliver_batch(self, batch: list[Request]):
        """SlackProcess delivery: one batch cost, then everyone completes."""
        superseded, self._superseded = self._superseded, []
        yield Compute(BATCH_BASE_COST + BATCH_ITEM_COST * len(batch))
        self.stats.batches += 1
        now = yield GET_TIME
        for req in batch:
            if now >= req.expires_at:
                yield from self._expire(req)
            else:
                yield from self._finish(req, DONE)
        for req in superseded:
            self.stats.bump(req.tenant.name, "coalesced")
            yield from self._finish(req, DONE)

    # -- the deadline sleeper ---------------------------------------------

    def _sweep(self):
        """Per-tick sweep: sample queue depth, prune expired requests."""
        now = yield GET_TIME
        self.stats.depth_samples.append(
            (now, len(self.admission), self.stats.total("shed"))
        )

        def cut(r):
            return r.expires_at <= now and r.status == PENDING

        expired = yield from self.admission.prune(cut)
        for queue in self.serial_queues.values():
            expired += yield from queue.prune(cut)
        for req in expired:
            yield from self._expire(req)
