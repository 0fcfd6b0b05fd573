"""repro: a reproduction of "Using Threads in Interactive Systems:
A Case Study" (Hauser, Jacobi, Theimer, Welch, Weiser — SOSP 1993).

The package simulates the Mesa/PCR thread world the paper measured:

* :mod:`repro.kernel` — a deterministic discrete-event thread kernel with
  the PCR scheduler (strict priorities, 50 ms quantum, tick-granular
  timeouts, YieldButNotToMe, SystemDaemon donations);
* :mod:`repro.sync` — Mesa monitors, condition variables and the CV-based
  building blocks (bounded and unbounded queues);
* :mod:`repro.paradigms` — the ten thread-usage paradigms of Section 4 as
  reusable components;
* :mod:`repro.workloads` — synthetic Cedar and GVX worlds whose dynamic
  statistics regenerate Tables 1-3;
* :mod:`repro.corpus` / :mod:`repro.analysis` — the static census
  machinery behind Table 4 and the dynamic-analysis metrics;
* :mod:`repro.xwindows` / :mod:`repro.casestudies` — the engineering-
  lesson experiments of Sections 5 and 6.
"""

__version__ = "1.0.0"

from repro.kernel import Kernel, KernelConfig, msec, sec, usec

__all__ = ["Kernel", "KernelConfig", "msec", "sec", "usec", "__version__"]
