"""The corpus data model: code fragments and the paradigm taxonomy.

The ten categories are Section 4's final list, plus "unknown" for
fragments that "seem not to fit easily into any category".
"""

from __future__ import annotations

from dataclasses import dataclass, field

DEFER = "defer-work"
PUMP = "pump"
SLACK = "slack-process"
SLEEPER = "sleeper"
ONESHOT = "oneshot"
DEADLOCK_AVOID = "deadlock-avoider"
REJUVENATE = "task-rejuvenation"
SERIALIZER = "serializer"
ENCAPSULATED = "encapsulated-fork"
EXPLOITER = "concurrency-exploiter"
UNKNOWN = "unknown"

#: Census order follows Table 4.
PARADIGMS = [
    DEFER,
    PUMP,
    SLACK,
    SLEEPER,
    ONESHOT,
    DEADLOCK_AVOID,
    REJUVENATE,
    SERIALIZER,
    ENCAPSULATED,
    EXPLOITER,
    UNKNOWN,
]


@dataclass(frozen=True)
class CodeFragment:
    """One thread-creating code fragment, as the census would read it.

    ``text`` is the Mesa-flavoured source snippet (what grep + reading
    sees); ``module`` and ``procedure`` locate it; ``label`` is the
    ground-truth paradigm the generator built it from, which the
    classifier does NOT see.
    """

    fragment_id: int
    system: str
    module: str
    procedure: str
    text: str
    label: str


@dataclass
class CensusCount:
    """Paradigm counts for one system (a Table 4 column)."""

    system: str
    counts: dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def fraction(self, paradigm: str) -> float:
        if self.total == 0:
            return 0.0
        return self.counts.get(paradigm, 0) / self.total


#: Table 4 as published ("Static Counts of Different Ways Threads Used").
PAPER_TABLE4: dict[str, dict[str, int]] = {
    "Cedar": {
        DEFER: 108,
        PUMP: 48,
        SLACK: 7,
        SLEEPER: 67,
        ONESHOT: 25,
        DEADLOCK_AVOID: 35,
        REJUVENATE: 11,
        SERIALIZER: 5,
        ENCAPSULATED: 14,
        EXPLOITER: 3,
        UNKNOWN: 25,
    },
    "GVX": {
        DEFER: 77,
        PUMP: 33,
        SLACK: 2,
        SLEEPER: 15,
        ONESHOT: 11,
        DEADLOCK_AVOID: 6,
        REJUVENATE: 0,
        SERIALIZER: 7,
        ENCAPSULATED: 5,
        EXPLOITER: 0,
        UNKNOWN: 78,
    },
}

#: Table 4 totals: 348 Cedar fragments, 234 GVX fragments.
PAPER_TOTALS = {
    system: sum(counts.values()) for system, counts in PAPER_TABLE4.items()
}
