"""Tables 1-3: the paper's reported values and the machinery to
regenerate them from the synthetic worlds.

``PAPER_ROWS`` transcribes the published numbers; ``measure`` runs one
activity and returns the measured row; ``measure_all`` produces a full
table.  Reproduction succeeds on *shape*: orderings and rough magnitudes,
not exact matches (see EXPERIMENTS.md for the per-cell comparison).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.kernel.simtime import sec
from repro.workloads import SYSTEMS
from repro.workloads.base import ActivityResult, run_activity


@dataclass(frozen=True)
class PaperRow:
    """One published row across Tables 1, 2 and 3."""

    system: str
    activity: str
    forks_per_sec: float      # Table 1
    switches_per_sec: float   # Table 1
    waits_per_sec: float      # Table 2
    timeout_fraction: float   # Table 2 (fraction, not %)
    ml_enters_per_sec: float  # Table 2
    distinct_cvs: int         # Table 3
    distinct_mls: int         # Table 3


#: Tables 1-3 as published (timeout fractions converted from %).
PAPER_ROWS: dict[tuple[str, str], PaperRow] = {
    (r.system, r.activity): r
    for r in [
        PaperRow("Cedar", "idle", 0.9, 132, 121, 0.82, 414, 22, 554),
        PaperRow("Cedar", "keyboard", 5.0, 269, 185, 0.48, 2557, 32, 918),
        PaperRow("Cedar", "mouse", 1.0, 191, 163, 0.58, 1025, 26, 734),
        PaperRow("Cedar", "scrolling", 0.7, 172, 115, 0.69, 2032, 30, 797),
        PaperRow("Cedar", "formatting", 3.6, 171, 130, 0.72, 2739, 46, 1060),
        PaperRow("Cedar", "previewing", 1.6, 222, 157, 0.56, 1335, 32, 938),
        PaperRow("Cedar", "make", 0.3, 170, 158, 0.61, 2218, 24, 1296),
        PaperRow("Cedar", "compile", 0.3, 135, 119, 0.82, 1365, 36, 2900),
        PaperRow("GVX", "idle", 0.0, 33, 32, 0.99, 366, 5, 48),
        PaperRow("GVX", "keyboard", 0.0, 60, 38, 0.42, 1436, 7, 204),
        PaperRow("GVX", "mouse", 0.0, 34, 33, 0.96, 410, 5, 52),
        PaperRow("GVX", "scrolling", 0.0, 43, 25, 0.61, 691, 6, 209),
    ]
}

def measure(
    system: str,
    activity: str,
    *,
    warmup: int = sec(3),
    window: int = sec(10),
    seed: int = 0,
) -> ActivityResult:
    """Run one benchmark activity and return its measured row."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    build_world, activities = SYSTEMS[system]
    if activity not in activities:
        raise ValueError(f"unknown {system} activity {activity!r}")
    return run_activity(
        system=system,
        activity=activity,
        build_world=build_world,
        install=activities[activity],
        warmup=warmup,
        window=window,
        seed=seed,
    )


def measure_all(system: str, **kwargs) -> list[ActivityResult]:
    """Measure every benchmark activity for a system, in table order."""
    return [measure(system, name, **kwargs) for name in SYSTEMS[system][1]]


def paper_row(system: str, activity: str) -> PaperRow:
    return PAPER_ROWS[(system, activity)]
