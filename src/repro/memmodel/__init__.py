"""Pluggable memory models for the simulated kernel (Section 5.5).

"We saw several places where the correctness of threaded code depended
on strong memory ordering, an assumption no longer true in some modern
multiprocessors with weakly ordered memory."

``KernelConfig(memory_model=...)`` selects how ``MemWrite``/``MemRead``
/``Fence`` traps behave:

=========  ==========================================================
``sc``     Sequential consistency (the default): every store commits
           globally at once; fences are no-ops.  Byte-identical to the
           seed behaviour — the golden-schedule guard pins it.
``tso``    x86-TSO: per-thread FIFO store buffers with store-to-load
           forwarding (:class:`StoreBufferMemory`).  Only store→load
           reordering is observable; the §5.5 hazards cannot occur.
``pso``    Per-thread buffers, FIFO per variable only: stores to
           different variables drain out of program order — the
           machine on which both §5.5 examples break.
=========  ==========================================================

``sc`` is the unbuffered :class:`~repro.kernel.memory.MemorySystem`.
The buffered models expose ``mem.drain`` decision points, so :mod:`repro.explore` can enumerate drain interleavings; the
litmus harness (:mod:`repro.memmodel.litmus`, ``python -m repro
litmus``) uses that to compute *reachable outcome sets* for the classic
SB/MP/LB/IRIW tests and check them against pinned expectation tables.
See ``docs/MEMORY.md``.
"""

from repro.kernel.memory import MemorySystem, SimVar, create_memory_model
from repro.memmodel.storebuffer import StoreBufferMemory

__all__ = [
    "MemorySystem",
    "SimVar",
    "StoreBufferMemory",
    "create_memory_model",
]
