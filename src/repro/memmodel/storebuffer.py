"""Per-thread store-buffer memory models: x86-TSO and PSO.

These are the weakly ordered machines behind
``KernelConfig(memory_model=...)``; the default ``sc`` is the unbuffered
:class:`~repro.kernel.memory.MemorySystem`.  Every source of
nondeterminism lives inside the schedule-exploration seam:

* **TSO** (``memory_model="tso"``, ``fifo=True``): each thread owns a
  FIFO store buffer.  A ``MemWrite`` enqueues locally; a ``MemRead``
  consults the thread's own buffer first (store-to-load forwarding) and
  falls back to shared memory.  Entries commit strictly in program
  order, so the only reordering a thread can observe of another is
  store→load — exactly x86-TSO.  Store-store reordering (the §5.5
  pointer-publication hazard) is *impossible*: FIFO drain means the
  record's fields always commit before the pointer.

* **PSO** (``memory_model="pso"``, ``fifo=False``): same buffers, but
  FIFO per *variable* only — stores to different variables may commit
  out of program order.  This is the §5.5 machine: the publication and
  init-once hazards are reachable, and a fence (or monitor entry/exit)
  is what restores safety.

Two drain mechanisms, both deterministic:

* **Age**: an entry becomes eligible ``[1, store_buffer_delay]`` µs
  after issue (delay drawn from the kernel's dedicated ``"memory"`` RNG
  stream), and eligible entries commit — in buffer order under TSO, in
  per-variable order under PSO — whenever the memory system is next
  consulted.  With no schedule controller, this is the only way
  entries commit outside fences.
* **Decision**: before each memory access the kernel offers every
  currently committable entry as one ``mem.drain`` decision through
  ``Kernel.decide`` (see ``Kernel._offer_mem_drains``), so an explorer
  can enumerate drain interleavings like any other nondeterministic
  choice.  Choice 0 ("hold buffers") is the default, so the offer
  changes nothing unless a controller picks a drain.

Cross-thread commit order under pure aging is resolved in ascending
thread-id order — deterministic, and any other order is reachable
through the decision seam.
"""

from __future__ import annotations

from typing import Any

from repro.kernel.config import KernelConfig
from repro.kernel.memory import SimVar


class _Entry:
    """One buffered store."""

    __slots__ = ("var", "value", "visible_at", "token")

    def __init__(self, var: SimVar, value: Any, visible_at: int, token: Any) -> None:
        self.var = var
        self.value = value
        self.visible_at = visible_at
        self.token = token

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<_Entry {self.var.name}={self.value!r} @{self.visible_at}>"


class StoreBufferMemory:
    """Per-thread store buffers, FIFO (TSO) or per-variable FIFO (PSO).

    Exposes the same counters and ``store``/``load_observed`` calls as
    :class:`~repro.kernel.memory.MemorySystem`, plus ``fence`` and the
    drain options (``drain_options``/``drain_option``) the kernel offers
    as ``mem.drain`` decisions.
    """

    #: Stores can be buffered: the kernel fences this memory and offers
    #: its ``mem.drain`` decision points.
    buffered = True

    def __init__(self, config: KernelConfig, rng: Any, *, fifo: bool) -> None:
        self.fifo = fifo
        self._delay = max(1, config.store_buffer_delay)
        self._rng = rng
        #: Fences that actually drained a store buffer.
        self.fences = 0
        #: Every ``fence`` call, effective or not.
        self.fence_requests = 0
        self.stores = 0
        self.loads = 0
        #: Loads that missed a newer value still buffered by another
        #: thread — the §5.5 hazard counter.
        self.stale_loads = 0
        #: Entries committed through ``mem.drain`` decisions.
        self.drain_decisions = 0
        self._buffers: dict[int, list[_Entry]] = {}
        self._owners: dict[int, Any] = {}

    # -- the kernel's calls ------------------------------------------------

    def store(
        self, var: SimVar, value: Any, now: int, thread: Any, token: Any
    ) -> None:
        self.stores += 1
        self._age(now)
        buffer = self._buffers.get(thread.tid)
        if buffer is None:
            buffer = self._buffers[thread.tid] = []
            self._owners[thread.tid] = thread
        delay = self._rng.randint(1, self._delay)
        buffer.append(_Entry(var, value, now + delay, token))

    def load_observed(self, var: SimVar, now: int, thread: Any) -> tuple[Any, Any]:
        """The value ``thread`` sees in ``var`` and its write token."""
        self.loads += 1
        self._age(now)
        buffer = self._buffers.get(thread.tid)
        if buffer:
            # Store-to-load forwarding: a thread always sees its own
            # newest buffered store.
            for entry in reversed(buffer):
                if entry.var is var:
                    return entry.value, entry.token
        for tid, buffer in self._buffers.items():
            if tid == thread.tid:
                continue
            if any(entry.var is var for entry in buffer):
                # Another thread has a newer in-flight value we cannot see.
                self.stale_loads += 1
                break
        return var.committed, var.token

    def fence(self, thread: Any) -> None:
        """Drain the fencing thread's buffer completely, in program
        order.  Only fences that drain something count in ``fences``."""
        self.fence_requests += 1
        buffer = self._buffers.get(thread.tid)
        if not buffer:
            return
        self.fences += 1
        for entry in buffer:
            self._commit(entry)
        buffer.clear()

    # -- the drain-decision seam ------------------------------------------

    def drain_options(self) -> list[tuple[tuple[int, int], str]]:
        """Every store the model could legally commit next.

        Returns ``(key, label)`` pairs; labels name the owning thread so
        decision traces read as interleavings.  Under TSO only the head
        of each thread's buffer is committable (FIFO); under PSO the
        oldest entry per (thread, variable) is.
        """
        options: list[tuple[tuple[int, int], str]] = []
        if not any(self._buffers.values()):
            return options
        for tid in sorted(self._buffers):
            buffer = self._buffers[tid]
            if not buffer:
                continue
            owner = self._owners[tid].name
            if self.fifo:
                head = buffer[0]
                options.append(((tid, head.var.uid), f"{owner} drains {head.var.name}"))
            else:
                seen: set[int] = set()
                for entry in buffer:
                    if entry.var.uid in seen:
                        continue
                    seen.add(entry.var.uid)
                    options.append(
                        ((tid, entry.var.uid), f"{owner} drains {entry.var.name}")
                    )
        return options

    def drain_option(self, key: tuple[int, int], now: int) -> None:
        """Commit the option ``drain_options`` offered under ``key``."""
        tid, uid = key
        buffer = self._buffers.get(tid)
        if not buffer:
            raise ValueError(f"no buffered stores for thread {tid}")
        for index, entry in enumerate(buffer):
            if entry.var.uid == uid:
                if self.fifo and index != 0:
                    raise ValueError(
                        f"TSO drain must take the buffer head, not index {index}"
                    )
                self._commit(entry)
                del buffer[index]
                self.drain_decisions += 1
                return
        raise ValueError(f"thread {tid} has no buffered store to var uid {uid}")

    # -- internals ---------------------------------------------------------

    def _commit(self, entry: _Entry) -> None:
        entry.var.committed = entry.value
        entry.var.token = entry.token

    def _age(self, now: int) -> None:
        """Commit every age-eligible entry, respecting the model's
        ordering constraint (whole-buffer FIFO vs per-variable FIFO)."""
        for tid in sorted(self._buffers):
            buffer = self._buffers[tid]
            if not buffer:
                continue
            if self.fifo:
                index = 0
                while index < len(buffer) and buffer[index].visible_at <= now:
                    self._commit(buffer[index])
                    index += 1
                if index:
                    del buffer[:index]
            else:
                kept: list[_Entry] = []
                blocked: set[int] = set()
                for entry in buffer:
                    if entry.var.uid in blocked or entry.visible_at > now:
                        kept.append(entry)
                        blocked.add(entry.var.uid)
                    else:
                        self._commit(entry)
                if len(kept) != len(buffer):
                    self._buffers[tid] = kept

    def buffered_entries(self) -> int:
        """Total in-flight stores across all threads (for reports)."""
        return sum(len(buffer) for buffer in self._buffers.values())
