"""Simulated shared memory (Section 5.5).

"We saw several places where the correctness of threaded code depended on
strong memory ordering, an assumption no longer true in some modern
multiprocessors with weakly ordered memory."

Thread code uses memory through the ``MemRead``/``MemWrite``/``Fence``
traps (or the ``SimVar`` convenience wrappers), never by mutating Python
objects directly — direct mutation would silently get strong ordering.

The kernel talks to its memory through three calls:
``store(var, value, now, thread, token)``,
``load_observed(var, now, thread)`` and, for buffered memories only,
``fence(thread)``.  This module holds the cells and the default
sequentially consistent memory, on which every store is globally visible
at once and fences are free no-ops the kernel skips.  The weakly ordered
machines — per-thread store buffers under ``tso`` and ``pso``, on which
the paper's two examples break — live in :mod:`repro.memmodel`.
"""

from __future__ import annotations

import itertools
from typing import Any

from repro.kernel.config import MODEL_PSO, MODEL_SC, MODEL_TSO, KernelConfig

_uid_counter = itertools.count(1)


class SimVar:
    """One shared memory cell.

    ``committed`` holds the globally visible value.  ``token`` is the
    race detector's write token for that value (None when race detection
    is off or the value is the initial one) — it rides along so a reader
    can tell the detector *which* write it observed.  ``uid`` is never
    reused, so it identifies the cell even after it is freed.
    """

    __slots__ = ("uid", "name", "committed", "token")

    def __init__(self, name: str, initial: Any = None) -> None:
        self.uid = next(_uid_counter)
        self.name = name
        self.committed = initial
        self.token: Any = None

    def __repr__(self) -> str:
        return f"<SimVar {self.name!r}={self.committed!r}>"


class MemorySystem:
    """Sequentially consistent memory: stores commit globally at once."""

    #: No store buffers: the kernel skips fences and ``mem.drain``
    #: decision points entirely.
    buffered = False

    def __init__(self) -> None:
        self.stores = 0
        self.loads = 0
        #: Fences that drained a store buffer — always 0 here, kept so
        #: every memory reports the same counters.
        self.fences = 0

    def store(
        self, var: SimVar, value: Any, now: int, thread: Any, token: Any
    ) -> None:
        self.stores += 1
        var.committed = value
        var.token = token

    def load_observed(self, var: SimVar, now: int, thread: Any) -> tuple[Any, Any]:
        """The value ``thread`` sees in ``var`` and its write token."""
        self.loads += 1
        return var.committed, var.token


def create_memory_model(config: KernelConfig, rng: Any) -> Any:
    """Instantiate the memory model ``config.memory_model`` selects.

    The store-buffer models live in :mod:`repro.memmodel` (a layer above
    the kernel); the import is deferred so the default ``sc`` path never
    touches that package and no import cycle forms.  The name is checked
    here as well as in ``KernelConfig`` because builders may set it after
    the config was validated.
    """
    model = config.memory_model
    if model == MODEL_SC:
        return MemorySystem()
    if model in (MODEL_TSO, MODEL_PSO):
        from repro.memmodel.storebuffer import StoreBufferMemory

        return StoreBufferMemory(config, rng, fifo=model == MODEL_TSO)
    raise ValueError(f"bad memory_model: {model!r}")
