"""The scenario catalogue: every world the tools run, in one table.

Golden fingerprinting (:mod:`repro.analysis.golden`), the chaos sweep
(:mod:`repro.analysis.chaos`), schedule exploration (``python -m repro
explore``, including ``--replay``) and the litmus battery all select
their worlds from :data:`SCENARIOS` by name or by tag, so every world is
reachable from every tool under one name.

Each entry's ``build(config) -> (kernel, shutdown)`` sets the config
fields its world needs (CPU count, notify semantics, quantum, ...) on
top of what the calling tool passes in: the seed, tracing, the fault
plan, the watchdog and the schedule controller.

Tags, each listing its entries in catalogue order:

* ``golden`` — fingerprinted against ``tests/golden/schedule_hashes.json``;
* ``sweep`` — the chaos sweep's worlds; sampled runs cycle through them
  by index, so their order is part of every seeded chaos report;
* ``chaos`` — chaos's directed runs (``chaos`` without ``--scenario``);
* ``directed`` / ``clean`` — explore's groups (``all`` is both): a
  directed entry carries a bug the explorer must find, a clean entry
  must stay quiet for the whole budget;
* ``litmus`` — the litmus (test, model) pairs.

A selector (:func:`resolve`) is a comma list of names and tags.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.analysis.faults import FaultPlan
from repro.cluster.replication import (
    install_balancer_kill,
    install_primary_kill,
    lost_requests,
)
from repro.cluster.world import build_cluster_world
from repro.kernel import Kernel, KernelConfig, msec, sec, usec
from repro.kernel import primitives as p
from repro.kernel.config import MODEL_PSO
from repro.kernel.primitives import Notify, Wait
from repro.kernel.thread import ThreadState
from repro.memmodel.litmus import LITMUS_TESTS, MODELS, litmus_scenario
from repro.server.model import TenantSpec
from repro.server.world import build_server_world
from repro.sync.condition import (
    ConditionVariable,
    await_condition,
    await_condition_if_broken,
)
from repro.sync.monitor import Monitor
from repro.workloads import SYSTEMS

#: ``expect`` values.  A deadlock entry is engineered to wedge: its
#: ``check`` reports a watchdog cycle beside a live bystander, which
#: chaos requires and explore must find.  A violation entry's ``check``
#: names a bug that only some schedules show, so explore must find it
#: and chaos does not count it.
EXPECT_DEADLOCK = "deadlock"
EXPECT_VIOLATION = "violation"


def _quiet(kernel: Kernel) -> list[str]:
    return []


@dataclass(frozen=True)
class Scenario:
    name: str
    build: Callable[[KernelConfig], tuple]
    #: Simulated run length of a golden fingerprint and of each explored
    #: schedule (chaos runs every entry for its fixed ``CHAOS_RUN``).
    horizon: int = sec(2)
    #: Fault seams to open: explore's fault decision sites and chaos's
    #: plan for a directed run (None = no faults).
    plan: "FaultPlan | None" = None
    #: None (clean), :data:`EXPECT_DEADLOCK` or :data:`EXPECT_VIOLATION`.
    expect: "str | None" = None
    #: Scenario-specific failures over the finished kernel; with
    #: ``expect`` set they name the expected bug instead.
    check: Callable[[Kernel], list[str]] = _quiet
    #: Run the dynamic race detector on every harness run, chaos's
    #: included (micro-scenarios only; the worlds are too hot for it).
    race_detection: bool = False
    tags: tuple[str, ...] = ()
    description: str = ""


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

#: States of a bystander still making progress beside a deadlock.
_BYSTANDER_STATES = (ThreadState.READY, ThreadState.RUNNING, ThreadState.SLEEPING)


def _deadlock_found(kernel: Kernel) -> list[str]:
    """The watchdog's first confirmed waits-for cycle, if the deadlock
    is *partial*: some thread outside every reported cycle is still
    ready, running or sleeping."""
    watchdog = kernel.watchdog
    if watchdog is None or not watchdog.deadlocks:
        return []
    wedged = set().union(*(report.tids for report in watchdog.deadlocks))
    if not any(
        t.tid not in wedged and t.state in _BYSTANDER_STATES
        for t in kernel.threads.values()
    ):
        return []
    first = watchdog.deadlocks[0]
    chain = " -> ".join(first.cycle + (first.cycle[0],))
    return [f"partial deadlock at t={first.time}us: {chain}"]


def _track_minted(balancer) -> list:
    """Wrap the balancer's request factory so every minted request is
    recorded — the ground-truth population for the custody audit."""
    minted: list = []
    original = balancer.factory.make

    def make(*args, **kwargs):
        req = original(*args, **kwargs)
        minted.append(req)
        return req

    balancer.factory.make = make
    return minted


def _settled_losses(kernel: Kernel, balancer, minted: list) -> list:
    """Requests that vanished: still PENDING yet held by no component.

    A request can be transiently unheld while a reroute/retry one-shot
    is being forked, so a nonzero audit gets up to three short settle
    windows before it counts as loss.
    """
    lost = lost_requests(balancer, minted)
    for _ in range(3):
        if not lost:
            break
        kernel.run_for(msec(40), raise_on_deadlock=False)
        lost = lost_requests(balancer, minted)
    return lost


def _vanished(tag: str, kernel: Kernel, state: dict) -> list[str]:
    lost = _settled_losses(kernel, state["balancer"], state["minted"])
    if not lost:
        return []
    rids = ", ".join(req.rid for req in lost[:5])
    return [f"{tag}: {len(lost)} acknowledged requests vanished ({rids})"]


def _watchdog_quiet(tag: str, what: str, kernel: Kernel) -> list[str]:
    if kernel.watchdog is not None and kernel.watchdog.deadlocks:
        return [f"{tag}: watchdog reported a deadlock {what}"]
    return []


# ---------------------------------------------------------------------------
# The paper's worlds and the layers above them
# ---------------------------------------------------------------------------

def _paper_world(system: str, activity: str):
    builder, activities = SYSTEMS[system]

    def build(config: KernelConfig):
        world, context = builder(config)
        install = activities[activity]
        if install is not None:
            install(world, context)
        return world.kernel, world.shutdown

    return build


def _server(scenario: str):
    """The multi-tenant RPC server world.  Under faults, stolen NOTIFYs
    must degrade to one-tick stalls (every pool get is timed), and kills
    must not leak monitor holds or wedge the remaining workers."""

    def build(config: KernelConfig):
        world, _server = build_server_world(config, scenario=scenario)
        return world.kernel, world.shutdown

    return build


def _cluster(scenario: str):
    """The sharded cluster world: balancer, WFQ admission, two shards.
    Under faults, stolen NOTIFYs on the credit CV must degrade to
    one-tick dispatch stalls, and kills must not leak monitors."""

    def build(config: KernelConfig):
        config.ncpus = 2
        world, _balancer = build_cluster_world(config, scenario=scenario)
        return world.kernel, world.shutdown

    return build


def _cluster_replicated(kill: bool):
    """The replicated cluster: log shipping, lease, standby — and, with
    ``kill``, a posted mid-run primary kill driving a full promotion.
    Pinning both proves the whole failover path (op-log ship/apply,
    replay, lease renewal) is itself deterministic."""

    def build(config: KernelConfig):
        config.ncpus = 2
        world, balancer = build_cluster_world(
            config, scenario="failover", shards=1, replicas=True
        )
        if kill:
            install_primary_kill(world, balancer, 0, msec(100))
        return world.kernel, world.shutdown

    return build


def _workload(scenario: str):
    """A compiled workload scenario: aggregate NHPP arrival pumps over
    the cluster (plus, for cache scenarios, the cache tier).  The pumps
    are kernel events, not threads, so injected kills land on the
    serving side only — the offered load never flinches."""

    def build(config: KernelConfig):
        from repro.workload.scenarios import workload_spec
        from repro.workload.world import build_workload_world

        spec = workload_spec(scenario)
        config.ncpus = spec.shards + (1 if spec.cache else 0)
        ww = build_workload_world(config, spec=spec)
        return ww.world.kernel, ww.world.shutdown

    return build


# ---------------------------------------------------------------------------
# Kernel micro-scenarios (golden)
# ---------------------------------------------------------------------------

def _spurious(semantics: str):
    """The Section-6.1 producer/consumer across a priority boundary."""

    def build(config: KernelConfig):
        config.notify_semantics = semantics
        kernel = Kernel(config)
        lock = Monitor("pc")
        nonempty = ConditionVariable(lock, "nonempty")
        state = {"available": 0, "consumed": 0}

        def consumer():
            while state["consumed"] < 40:
                yield lock.enter
                try:
                    while state["available"] == 0:
                        yield Wait(nonempty, timeout=msec(200))
                    state["available"] -= 1
                    state["consumed"] += 1
                finally:
                    yield lock.exit

        def producer():
            for _ in range(40):
                yield lock.enter
                try:
                    state["available"] += 1
                    yield Notify(nonempty)
                    yield p.Compute(usec(100))
                finally:
                    yield lock.exit
                yield p.Compute(usec(50))

        kernel.fork_root(consumer, name="consumer", priority=5)
        kernel.fork_root(producer, name="producer", priority=3)
        return kernel, kernel.shutdown

    return build


def _donations(config: KernelConfig):
    """YieldButNotToMe and directed yields across priorities (§5.2, §6.2)."""
    kernel = Kernel(config)
    progress = {"low": 0}
    handles = {}

    def low():
        while True:
            yield p.Compute(msec(2))
            progress["low"] += 1
            yield p.Yield()

    def courteous_high():
        for _ in range(120):
            yield p.Compute(msec(1))
            yield p.YieldButNotToMe()

    def director():
        for _ in range(40):
            yield p.Pause(msec(10))
            yield p.DirectedYield(handles["low"])

    handles["low"] = kernel.fork_root(low, name="low", priority=2)
    kernel.fork_root(courteous_high, name="high", priority=6)
    kernel.fork_root(director, name="director", priority=7)
    return kernel, kernel.shutdown


def _fork_churn(config: KernelConfig):
    """Fork/join churn that exhausts thread slots (§5.4 resource waits)."""
    config.max_threads = 8
    config.fork_failure = "wait"
    kernel = Kernel(config)

    def leaf(work):
        yield p.Compute(work)

    def spawner(depth):
        children = []
        for i in range(3):
            child = yield p.Fork(leaf, args=(usec(50 * (i + 1)),))
            children.append(child)
        if depth > 0:
            sub = yield p.Fork(spawner, args=(depth - 1,))
            children.append(sub)
        for child in children:
            yield p.Join(child)

    def root():
        for _ in range(12):
            top = yield p.Fork(spawner, args=(2,))
            yield p.Join(top)

    kernel.fork_root(root, name="root", priority=4)
    return kernel, kernel.shutdown


def _timed_waits(config: KernelConfig):
    """Every timed-wait kind: sleeps, CV timeouts, channel timeouts."""
    kernel = Kernel(config)
    channel = kernel.channel("dev")
    lock = Monitor("tw")
    cv = ConditionVariable(lock, "tw.cv", timeout=msec(80))

    def sleeper():
        for _ in range(25):
            yield p.Pause(msec(30))

    def cv_waiter():
        for _ in range(15):
            yield lock.enter
            try:
                yield Wait(cv)
            finally:
                yield lock.exit

    def stimulator():
        for _ in range(5):
            yield p.Pause(msec(170))
            yield lock.enter
            try:
                yield Notify(cv)
            finally:
                yield lock.exit

    def receiver():
        for _ in range(12):
            yield p.Channelreceive(channel, timeout=msec(60))

    kernel.fork_root(sleeper, name="sleeper", priority=3)
    kernel.fork_root(cv_waiter, name="cv-waiter", priority=4)
    kernel.fork_root(stimulator, name="stimulator", priority=5)
    kernel.fork_root(receiver, name="receiver", priority=4)
    for i in range(4):
        kernel.post_at(msec(100 + 150 * i), lambda k: channel.post("pkt"))
    return kernel, kernel.shutdown


def _multiprocessor(config: KernelConfig):
    """Two CPUs, mixed priorities, contention and preemption."""
    config.ncpus = 2
    kernel = Kernel(config)
    lock = Monitor("mp")

    def worker(slice_us):
        for _ in range(30):
            yield p.Compute(slice_us)
            yield lock.enter
            try:
                yield p.Compute(usec(20))
            finally:
                yield lock.exit

    def interrupter():
        for _ in range(20):
            yield p.Pause(msec(7))
            yield p.Compute(usec(300))

    for i, prio in enumerate([2, 3, 4, 4, 5]):
        kernel.fork_root(worker, args=(usec(400 + 100 * i),), priority=prio)
    kernel.fork_root(interrupter, name="interrupter", priority=7)
    return kernel, kernel.shutdown


def _fair_share(config: KernelConfig):
    """The Section-7 lottery policy: different code path entirely."""
    config.scheduler_policy = "fair_share"
    kernel = Kernel(config)
    progress = {}

    def worker(tag):
        progress[tag] = 0
        while True:
            yield p.Compute(msec(3))
            progress[tag] += 1

    for tag, prio in [("a", 1), ("b", 4), ("c", 7)]:
        kernel.fork_root(worker, args=(tag,), name=tag, priority=prio)
    return kernel, kernel.shutdown


def _weak_memory(config: KernelConfig):
    """PSO store buffers with fences and monitor-implied barriers (§5.5)."""
    from repro.kernel.memory import SimVar

    config.ncpus = 2
    config.memory_model = MODEL_PSO
    kernel = Kernel(config)
    flag = SimVar("flag", 0)
    data = SimVar("data", 0)
    lock = Monitor("wm")

    def writer():
        for i in range(40):
            yield p.MemWrite(data, i)
            yield p.Fence()
            yield p.MemWrite(flag, i + 1)
            yield p.Compute(usec(120))

    def reader():
        for _ in range(40):
            yield lock.enter
            try:
                seen = yield p.MemRead(flag)
                if seen:
                    yield p.MemRead(data)
            finally:
                yield lock.exit
            yield p.Compute(usec(90))

    kernel.fork_root(writer, name="writer", priority=4)
    kernel.fork_root(reader, name="reader", priority=4)
    return kernel, kernel.shutdown


# ---------------------------------------------------------------------------
# Fault-injection micro-scenarios
# ---------------------------------------------------------------------------

def _producer_consumer(config: KernelConfig):
    """The correct WAIT-in-a-loop idiom: survives every fault kind."""
    kernel = Kernel(config)
    lock = Monitor("chaos.pc")
    nonempty = ConditionVariable(lock, "chaos.nonempty")
    state = {"available": 0, "consumed": 0}

    def consumer():
        while state["consumed"] < 60:
            yield lock.enter
            try:
                # The timeout bounds the damage of a stolen NOTIFY; the
                # WHILE bounds the damage of a spurious wakeup.
                yield from await_condition(
                    nonempty, lambda: state["available"] > 0, timeout=msec(40)
                )
                if state["available"] > 0:
                    state["available"] -= 1
                    state["consumed"] += 1
            finally:
                yield lock.exit

    def producer():
        for _ in range(60):
            yield lock.enter
            try:
                state["available"] += 1
                yield Notify(nonempty)
            finally:
                yield lock.exit
            yield p.Pause(msec(5))

    kernel.fork_root(consumer, name="consumer", priority=5)
    kernel.fork_root(producer, name="producer", priority=4)
    return kernel, kernel.shutdown


def _fork_churn_faults(config: KernelConfig):
    """Fork/join trees under feigned FORK failures and kills."""
    kernel = Kernel(config)

    def leaf(work):
        yield p.Compute(work)

    def spawner(depth):
        children = []
        for i in range(3):
            child = yield p.Fork(leaf, args=(msec(1) * (i + 1),))
            children.append(child)
        if depth > 0:
            sub = yield p.Fork(spawner, args=(depth - 1,))
            children.append(sub)
        for child in children:
            try:
                yield p.Join(child)
            except Exception:
                pass  # a killed child's death arrives at JOIN; survive it

    def root():
        for _ in range(6):
            top = yield p.Fork(spawner, args=(1,))
            try:
                yield p.Join(top)
            except Exception:
                pass
            yield p.Pause(msec(10))

    kernel.fork_root(root, name="churn-root", priority=4)
    return kernel, kernel.shutdown


def _daemon():
    while True:
        yield p.Pause(msec(20))
        yield p.Compute(msec(1))


def _wait_if_deadlock(config: KernelConfig):
    """An injected spurious wakeup springs the §5.3 IF-not-WHILE
    anti-pattern into an ABBA monitor cycle, while a daemon keeps running.

    The victim WAITs (untimed, IF-guarded) for ``ready``; the spurious
    wake makes it proceed on a broken invariant and reach for a second
    monitor held by its partner, which is about to reach for the first.
    """
    kernel = Kernel(config)
    m_outer = Monitor("chaos.outer")
    m_inner = Monitor("chaos.inner")
    ready_cv = ConditionVariable(m_inner, "chaos.ready")
    state = {"ready": False}

    def victim():
        yield m_inner.enter
        # Anti-pattern: checks once, waits once, believes the wake.
        yield from await_condition_if_broken(ready_cv, lambda: state["ready"])
        yield m_outer.enter  # holds inner, wants outer -> half the cycle
        yield m_outer.exit
        yield m_inner.exit

    def partner():
        yield m_outer.enter
        yield p.Pause(msec(400))  # outlive the spurious wake
        yield m_inner.enter  # holds outer, wants inner -> cycle closed
        yield m_inner.exit
        yield m_outer.exit

    kernel.fork_root(victim, name="victim", priority=4)
    kernel.fork_root(partner, name="partner", priority=4)
    kernel.fork_root(_daemon, name="bystander", priority=3)
    return kernel, kernel.shutdown


def _abba_deadlock(config: KernelConfig):
    """A plain ABBA cycle (no faults needed), daemon running."""
    kernel = Kernel(config)
    m_a = Monitor("chaos.a")
    m_b = Monitor("chaos.b")

    def first():
        yield m_a.enter
        yield p.Pause(msec(10))
        yield m_b.enter
        yield m_b.exit
        yield m_a.exit

    def second():
        yield m_b.enter
        yield p.Pause(msec(10))
        yield m_a.enter
        yield m_a.exit
        yield m_b.exit

    kernel.fork_root(first, name="first", priority=4)
    kernel.fork_root(second, name="second", priority=4)
    kernel.fork_root(_daemon, name="bystander", priority=3)
    return kernel, kernel.shutdown


def _make_stolen_notify():
    """A single NOTIFY against an IF-guarded untimed WAIT (§4.2).

    One fault decision exists in the whole run: steal that NOTIFY or
    not.  Stolen, the consumer sleeps forever on an unowned monitor —
    invisible to the waits-for watchdog (no cycle), caught only by the
    progress check.  The exhaustive strategy finds it on schedule #1
    and the minimal counterexample is exactly one forced decision.
    """
    state: dict[str, int] = {}

    def build(config: KernelConfig):
        state.clear()
        state.update(ready=0, consumed=0)
        kernel = Kernel(config)
        lock = Monitor("explore.lock")
        ready_cv = ConditionVariable(lock, "explore.ready")

        def consumer():
            yield lock.enter
            try:
                # Anti-pattern: IF + untimed WAIT; one stolen NOTIFY is fatal.
                yield from await_condition_if_broken(
                    ready_cv, lambda: state["ready"] > 0
                )
                state["consumed"] += 1
            finally:
                yield lock.exit

        def producer():
            yield p.Pause(msec(5))
            yield lock.enter
            try:
                state["ready"] += 1
                yield Notify(ready_cv)
            finally:
                yield lock.exit

        kernel.fork_root(consumer, name="consumer", priority=5)
        kernel.fork_root(producer, name="producer", priority=4)
        return kernel, kernel.shutdown

    def check(kernel: Kernel) -> list[str]:
        producers_done = all(
            not t.alive for t in kernel.threads.values() if t.name == "producer"
        )
        if producers_done and state.get("consumed", 0) == 0:
            return [
                "lost wakeup: the NOTIFY was stolen and the IF-guarded "
                "consumer never consumed"
            ]
        return []

    return build, check


# ---------------------------------------------------------------------------
# Directed cluster and cache scenarios
# ---------------------------------------------------------------------------

def _make_cluster_wedge():
    """Wedge one shard, assert the breaker story end to end.

    Poison requests with effectively-infinite compute occupy every
    worker of shard 0 (plus its serializer), so its outcome counters
    stop while its queues hold work.  The balancer's health sleeper must
    trip the breaker, and — now that the shard is replicated — promote
    the replica, replaying the acknowledged in-flight requests instead
    of dropping them (``lost_inflight`` must stay zero; it counted 15+
    per run before replication).  Traffic must keep completing on the
    surviving shards, and the watchdog must stay quiet throughout — a
    wedged shard is congestion, not deadlock.
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        config.ncpus = 4
        world, balancer = build_cluster_world(
            config, scenario="steady", replicas=True, standby=False
        )
        state["balancer"] = balancer
        shard0 = balancer.shards[0]
        poison = TenantSpec(
            name="poison",
            mode="open",
            cost=sec(30),
            cost_jitter=0.0,
            deadline=sec(10),
            max_retries=0,
        )
        ordered_poison = TenantSpec(
            name="ordered",
            mode="open",
            cost=sec(30),
            cost_jitter=0.0,
            deadline=sec(10),
            max_retries=0,
            ordered=True,
        )

        def inject(k):
            # One per worker wedges the pool; one more wedges the
            # ordered serializer, so no completion path stays open.
            for _ in range(shard0.workers):
                shard0.net.post(shard0.make_request(poison, k.now))
            shard0.net.post(shard0.make_request(ordered_poison, k.now))

        world.kernel.post_at(msec(5), inject)
        return world.kernel, world.shutdown

    def check(kernel: Kernel) -> list[str]:
        balancer = state.get("balancer")
        if balancer is None:
            return ["wedge: balancer never built"]
        failures = []
        if balancer.trips < 1:
            failures.append("wedge: health probe never tripped the breaker")
        if balancer.promotions < 1:
            failures.append("wedge: tripped shard was never promoted")
        if balancer.replayed < 1:
            failures.append(
                "wedge: no in-flight request was replayed onto the replica"
            )
        lost = sum(balancer.lost_inflight)
        if lost:
            failures.append(
                f"wedge: {lost} acknowledged in-flight requests dropped"
            )
        survivors = sum(
            shard.stats.total("completed")
            for sid, shard in enumerate(balancer.shards)
            if sid != 0
        )
        if survivors == 0:
            failures.append("wedge: no completions on the surviving shards")
        if balancer.shards[0].stats.total("completed") == 0:
            failures.append("wedge: promoted replica completed nothing")
        return failures + _watchdog_quiet(
            "wedge", "for a congested shard", kernel
        )

    return build, check


def _make_kill_primary():
    """Kill every thread of a primary shard mid-batch.

    At ``msec(100)`` the failover mix has acknowledged work in every
    stage of shard 0 — queued, executing, retry-parked — when a posted
    event kills all of its threads at once.  The health probe must trip
    on the stalled progress counters, promote the replica, and replay
    the un-acked in-flight requests from the retransmit buffer against
    the replica's applied op log.  The custody audit then proves the
    claim: **zero acknowledged requests lost** — every minted request is
    either terminal or held by some live component.
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        config.ncpus = 4
        world, balancer = build_cluster_world(
            config, scenario="failover", replicas=True, standby=False
        )
        state["balancer"] = balancer
        state["minted"] = _track_minted(balancer)
        install_primary_kill(world, balancer, 0, msec(100))
        return world.kernel, world.shutdown

    def check(kernel: Kernel) -> list[str]:
        balancer = state.get("balancer")
        if balancer is None:
            return ["kill-primary: balancer never built"]
        failures = []
        if balancer.promotions < 1:
            failures.append("kill-primary: replica was never promoted")
        if balancer.replayed < 1:
            failures.append(
                "kill-primary: no in-flight request was replayed"
            )
        if sum(balancer.lost_inflight):
            failures.append(
                "kill-primary: lost_inflight counted on a replicated shard"
            )
        if balancer.quarantined:
            failures.append(
                "kill-primary: requests quarantined despite a live replica"
            )
        if balancer.shards[0].stats.total("completed") == 0:
            failures.append(
                "kill-primary: promoted replica completed nothing"
            )
        return (
            failures
            + _vanished("kill-primary", kernel, state)
            + _watchdog_quiet("kill-primary", "during failover", kernel)
        )

    return build, check


def _make_partition_balancer():
    """Partition away the balancer; the standby must take over.

    A posted event kills the primary balancer's whole thread population
    at ``msec(150)``.  Its lease stops being renewed, so the standby's
    watch sleeper must seize it, rebuild routing state from the shards'
    own progress counters, re-inject anything the dead pipeline was
    carrying between queues, and fork a replacement population.  The
    cluster must demonstrably complete work *after* the takeover, and
    the custody audit must find no vanished requests.
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        config.ncpus = 4
        world, balancer = build_cluster_world(
            config, scenario="failover", replicas=True, standby=True
        )
        state["balancer"] = balancer
        state["minted"] = _track_minted(balancer)
        install_balancer_kill(world, balancer, msec(150))
        return world.kernel, world.shutdown

    def check(kernel: Kernel) -> list[str]:
        balancer = state.get("balancer")
        if balancer is None:
            return ["partition: balancer never built"]
        failures = []
        lease = balancer.lease
        standby = balancer.standby
        if lease is None or lease.takeovers < 1:
            failures.append("partition: standby never seized the lease")
        if standby is None or not standby.active:
            failures.append("partition: standby never activated")
        else:
            done = sum(
                balancer.shard_done(sid)
                for sid in range(len(balancer.shards))
            )
            if done <= standby.completed_at_takeover:
                failures.append(
                    "partition: no completions after the takeover"
                )
        return (
            failures
            + _vanished("partition", kernel, state)
            + _watchdog_quiet("partition", "during takeover", kernel)
        )

    return build, check


def _make_failover_train():
    """Failover under forced schedules: promotion must never lose work.

    The smallest cluster that can fail over — one replicated shard, a
    fast quantum so the health probe trips inside the horizon, and a
    deterministic train of 40 arrivals (no Poisson events, so every
    decision the explorer forces is a *scheduling* decision).  A posted
    event kills the whole primary at ``msec(30)``, mid-train.  Whatever
    interleaving the explorer picks around the kill, the balancer must
    promote the replica and the custody audit must find no vanished
    request.
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        config.ncpus = 2
        config.quantum = msec(10)
        # Closed mode with zero clients registers the tenant (stats,
        # WFQ weight) without forking any traffic threads — arrivals
        # are the posted events below, nothing else.
        probe = TenantSpec(
            name="probe",
            mode="closed",
            clients=0,
            cost=usec(400),
            cost_jitter=0.0,
            deadline=msec(100),
            max_retries=1,
        )
        world, balancer = build_cluster_world(
            config,
            shards=1,
            tenants=(probe,),
            replicas=True,
            standby=False,
        )
        state["balancer"] = balancer
        state["minted"] = _track_minted(balancer)

        def arrive(k: Any) -> None:
            req = balancer.make_request(probe, k.now)
            balancer.stats.bump(probe.name, "offered")
            balancer.net.post(req)

        for index in range(40):
            world.kernel.post_at(msec(1) + index * usec(1500), arrive)
        install_primary_kill(world, balancer, 0, msec(30))
        return world.kernel, world.shutdown

    def check(kernel: Kernel) -> list[str]:
        balancer = state.get("balancer")
        if balancer is None:
            return ["failover: balancer never built"]
        if balancer.promotions < 1:
            return ["failover: the dead primary was never promoted"]
        return _vanished("failover", kernel, state)

    return build, check


def _make_cache_stampede():
    """Hot-key TTL expiry + wildcard invalidations with the single-flight
    guard ON — the stampede scenario in its guarded configuration.  The
    check asserts the guard's whole story: at most one fetch per key in
    flight (``max_inflight_per_key == 1``), backend amplification exactly
    one fetch per miss window, concurrent misses actually coalesced,
    traffic completing, and the watchdog quiet — parked waiters are
    congestion accounting, not deadlock.  (The *unguarded* contrast —
    amplification, p99 blowup, SLO loss — is measured by
    ``benchmarks/bench_workload.py``.)
    """
    state: dict[str, Any] = {}

    def build(config: KernelConfig):
        from repro.workload.scenarios import workload_spec
        from repro.workload.world import build_workload_world

        spec = workload_spec("cache-stampede")
        config.ncpus = spec.shards + 1
        ww = build_workload_world(config, spec=spec, single_flight=True)
        state["ww"] = ww
        return ww.world.kernel, ww.world.shutdown

    def check(kernel: Kernel) -> list[str]:
        ww = state.get("ww")
        if ww is None:
            return ["stampede: world never built"]
        cache = ww.cache
        failures = []
        if cache.max_inflight_per_key != 1:
            failures.append(
                "stampede: single-flight violated — "
                f"max_inflight_per_key={cache.max_inflight_per_key}"
            )
        if cache.fetches != cache.fetch_windows:
            failures.append(
                "stampede: backend amplification with the guard on — "
                f"{cache.fetches} fetches for {cache.fetch_windows} windows"
            )
        if cache.coalesced_waits == 0:
            failures.append(
                "stampede: no concurrent miss was ever coalesced"
            )
        if cache.fills == 0:
            failures.append("stampede: no fill ever landed")
        if cache.stats.total("completed") == 0:
            failures.append("stampede: no cached request completed")
        return failures + _watchdog_quiet(
            "stampede", "for parked waiters", kernel
        )

    return build, check


# ---------------------------------------------------------------------------
# The catalogue
# ---------------------------------------------------------------------------

_STOLEN_NOTIFY_BUILD, _STOLEN_NOTIFY_CHECK = _make_stolen_notify()
_WEDGE_BUILD, _WEDGE_CHECK = _make_cluster_wedge()
_KILL_PRIMARY_BUILD, _KILL_PRIMARY_CHECK = _make_kill_primary()
_PARTITION_BUILD, _PARTITION_CHECK = _make_partition_balancer()
_TRAIN_BUILD, _TRAIN_CHECK = _make_failover_train()
_STAMPEDE_BUILD, _STAMPEDE_CHECK = _make_cache_stampede()

_GOLDEN_SWEEP = ("golden", "sweep")

SCENARIOS: dict[str, Scenario] = {s.name: s for s in (
    # The sweep tag's order is part of every seeded chaos report.
    Scenario("cedar-idle", _paper_world("Cedar", "idle"),
             tags=("golden", "sweep", "clean"),
             description="the Cedar world's background activity; under "
                         "forced scheduler picks invariants must hold on "
                         "every order"),
    Scenario("cedar-keyboard", _paper_world("Cedar", "keyboard"),
             tags=_GOLDEN_SWEEP),
    Scenario("cedar-formatting", _paper_world("Cedar", "formatting"),
             tags=_GOLDEN_SWEEP),
    Scenario("gvx-idle", _paper_world("GVX", "idle"), tags=_GOLDEN_SWEEP),
    Scenario("gvx-keyboard", _paper_world("GVX", "keyboard"),
             tags=_GOLDEN_SWEEP),
    Scenario("producer-consumer", _producer_consumer, horizon=sec(1),
             plan=FaultPlan(drop_notify_prob=0.5, spurious_wakeup_prob=0.5),
             race_detection=True, tags=("sweep", "clean"),
             description="the correct WAIT-in-a-loop idiom with timeouts; "
                         "must survive every explored steal/spurious "
                         "combination"),
    Scenario("fork-churn-faults", _fork_churn_faults, horizon=sec(1),
             tags=("sweep",),
             description="fork/join trees that survive feigned FORK "
                         "failures and killed children"),
    Scenario("server-steady", _server("steady"), tags=_GOLDEN_SWEEP),
    Scenario("server-overload", _server("overload"), tags=_GOLDEN_SWEEP),
    Scenario("cluster-steady", _cluster("steady"), tags=_GOLDEN_SWEEP),
    Scenario("cluster-skewed", _cluster("skewed"), tags=_GOLDEN_SWEEP),
    Scenario("workload-diurnal", _workload("diurnal"), tags=_GOLDEN_SWEEP),
    Scenario("cache-steady", _workload("cache-steady"), tags=_GOLDEN_SWEEP),
    Scenario("spurious-immediate", _spurious("immediate"), horizon=sec(5),
             tags=("golden",)),
    Scenario("spurious-deferred", _spurious("deferred"), horizon=sec(5),
             tags=("golden",)),
    Scenario("donations", _donations, horizon=sec(1), tags=("golden",)),
    Scenario("fork-churn", _fork_churn, tags=("golden",)),
    Scenario("timed-waits", _timed_waits, tags=("golden",)),
    Scenario("multiprocessor", _multiprocessor, horizon=sec(1),
             tags=("golden",)),
    Scenario("fair-share", _fair_share, horizon=sec(1), tags=("golden",)),
    Scenario("weak-memory", _weak_memory, horizon=sec(1), tags=("golden",)),
    Scenario("cluster-replicated", _cluster_replicated(kill=False),
             tags=("golden",)),
    Scenario("cluster-failover", _cluster_replicated(kill=True),
             tags=("golden",)),
    # Directed: chaos and explore order follows the catalogue.
    Scenario("wait-if-deadlock", _wait_if_deadlock, horizon=sec(1),
             plan=FaultPlan(spurious_wakeup_prob=1.0),
             expect=EXPECT_DEADLOCK, check=_deadlock_found, tags=("chaos",),
             description="§5.3 WAIT-in-IF sprung by a certain spurious "
                         "wake; the watchdog must report the cycle while "
                         "a bystander runs"),
    Scenario("wait-if", _wait_if_deadlock, horizon=sec(1),
             plan=FaultPlan(spurious_wakeup_prob=0.5),
             expect=EXPECT_DEADLOCK, check=_deadlock_found,
             race_detection=True, tags=("directed",),
             description="§5.3 WAIT-in-IF sprung into an ABBA cycle by a "
                         "spurious wake landing inside the partner's window"),
    Scenario("abba", _abba_deadlock, horizon=sec(1),
             expect=EXPECT_DEADLOCK, check=_deadlock_found,
             race_detection=True, tags=("chaos", "directed"),
             description="plain ABBA lock cycle; deadlocks on every "
                         "schedule, so the minimal counterexample is zero "
                         "forced decisions"),
    Scenario("stolen-notify", _STOLEN_NOTIFY_BUILD, horizon=sec(1),
             plan=FaultPlan(drop_notify_prob=0.5),
             expect=EXPECT_VIOLATION, check=_STOLEN_NOTIFY_CHECK,
             race_detection=True, tags=("directed",),
             description="one stolen NOTIFY against an IF-guarded untimed "
                         "WAIT; no waits-for cycle, caught by the progress "
                         "check"),
    Scenario("cluster-wedged-shard", _WEDGE_BUILD, horizon=sec(1),
             check=_WEDGE_CHECK, tags=("chaos",),
             description="one shard wedged by poison requests; the breaker "
                         "must trip and promote, the watchdog stay quiet"),
    Scenario("cluster-kill-primary", _KILL_PRIMARY_BUILD, horizon=sec(1),
             check=_KILL_PRIMARY_CHECK, tags=("chaos",),
             description="a primary shard killed mid-batch; promotion must "
                         "replay its in-flight work and lose nothing"),
    Scenario("cluster-partition-balancer", _PARTITION_BUILD, horizon=sec(1),
             check=_PARTITION_CHECK, tags=("chaos",),
             description="the balancer killed; the standby must seize the "
                         "lease and keep the cluster completing"),
    Scenario("cache-stampede", _STAMPEDE_BUILD, horizon=sec(1),
             check=_STAMPEDE_CHECK, tags=("chaos",),
             description="hot-key expiry and wildcard invalidations with "
                         "single-flight on: one fetch per miss window"),
    Scenario("cluster-failover-train", _TRAIN_BUILD, horizon=msec(300),
             check=_TRAIN_CHECK,
             description="a replicated one-shard cluster killed mid-train; "
                         "promotion must lose zero requests on every "
                         "schedule"),
    *(litmus_scenario(test, model)[0]
      for test in LITMUS_TESTS for model in MODELS),
)}


def resolve(selector: str) -> list[Scenario]:
    """Map a selector — a comma list of entry names and tags — to
    entries.  A tag stands for its entries in catalogue order; ``all``
    is explore's ``directed`` then ``clean``.  Raises KeyError for an
    unknown part or an empty selection, listing the known names."""
    chosen: list[Scenario] = []
    unknown: list[str] = []
    for part in (part.strip() for part in selector.split(",")):
        if not part:
            continue
        if part in SCENARIOS:
            chosen.append(SCENARIOS[part])
            continue
        tags = ("directed", "clean") if part == "all" else (part,)
        group = [s for tag in tags for s in SCENARIOS.values() if tag in s.tags]
        if group:
            chosen.extend(group)
        else:
            unknown.append(part)
    if unknown or not chosen:
        problem = f"unknown scenario(s) {unknown}" if unknown else "empty selection"
        tags = sorted({tag for s in SCENARIOS.values() for tag in s.tags})
        raise KeyError(
            f"{problem} {selector!r}; known: {sorted(SCENARIOS)}, "
            f"tags: {tags + ['all']}"
        )
    return chosen
