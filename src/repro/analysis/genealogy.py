"""Fork-genealogy analysis (F3).

Section 3's forking-pattern observations:

* "none of our benchmarks exhibited forking generations greater than 2.
  That is, every transient thread was either the child or grandchild of
  some worker or long-lived thread."
* the per-activity patterns: keyboard forks one transient per keystroke
  from the command shell; the formatter's transients "fork one or more
  additional transient threads" while the compiler's and previewer's
  "simply run to completion"; mouse motion forks nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.kernel.stats import ThreadRecord


@dataclass
class GenealogyReport:
    #: thread count per fork generation (0 = roots/eternal/workers).
    by_generation: dict[int, int]
    max_generation: int
    transient_count: int
    #: names of generation-2 thread kinds (the grandchildren).
    grandchild_kinds: list[str]


def analyse(thread_log: list[ThreadRecord]) -> GenealogyReport:
    """Genealogy of every thread created during a window."""
    by_generation = Counter(record.generation for record in thread_log)
    transients = [r for r in thread_log if r.generation >= 1]
    grandchildren = sorted(
        {r.name.split("#")[0] for r in thread_log if r.generation == 2}
    )
    return GenealogyReport(
        by_generation=dict(sorted(by_generation.items())),
        max_generation=max(by_generation, default=0),
        transient_count=len(transients),
        grandchild_kinds=grandchildren,
    )
