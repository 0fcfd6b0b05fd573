"""The paradigm classifier: the census "reader" for Table 4.

The paper's method: "we used grep to locate all uses of thread primitives
and then read the surrounding code".  The classifier plays the reading
researcher with an ordered rule list: each rule is a set of grep-style
cues (regexes over the fragment text) capturing how a human recognises
the paradigm — a FORK immediately before RETURN is work deferral, a WAIT
inside a loop with a timeout comment is a sleeper, a merge step with a
yield is a slack process, and so on.  Rules are checked most-specific
first; a fragment matching nothing lands in "unknown or other", exactly
like the paper's residual row.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable

from repro.corpus import model
from repro.corpus.model import CensusCount, CodeFragment


@dataclass(frozen=True)
class Rule:
    """One classification rule: every pattern must match somewhere."""

    paradigm: str
    patterns: tuple[str, ...]
    #: Rules may also require the absence of a cue (e.g. a pump is only a
    #: *slack* process if it merges/batches).
    forbidden: tuple[str, ...] = ()

    def matches(self, text: str) -> bool:
        for pattern in self.patterns:
            if not re.search(pattern, text, re.IGNORECASE):
                return False
        for pattern in self.forbidden:
            if re.search(pattern, text, re.IGNORECASE):
                return False
        return True


#: Ordered most-specific-first: slack before pump, encapsulated before
#: one-shot (DelayedFork *is* a one-shot, but the census counts the
#: package uses separately), rejuvenation before defer.
RULES: list[Rule] = [
    Rule(
        model.ENCAPSULATED,
        (r"(DelayedFork|PeriodicalFork|PeriodicalProcess|MBQueue)\.(Create|Register)",),
    ),
    Rule(
        model.SLACK,
        (r"(merge|coalesce|batch)", r"(YieldButNotToMe|Yield|Pause)", r"(Dequeue|Get)\["),
    ),
    Rule(
        model.REJUVENATE,
        (r"UNCAUGHT", r"FORK"),
    ),
    Rule(
        model.EXPLOITER,
        (r"numProcessors|processors\b", r"FORK", r"JOIN"),
    ),
    Rule(
        model.SERIALIZER,
        (r"(MBQueue\.Dequeue|order(ing)? of|order received)", r"WHILE TRUE"),
    ),
    Rule(
        model.DEADLOCK_AVOID,
        (r"(hold some|locks? (it|needed|in order)|release its locks|insulated)",
         r"FORK"),
    ),
    Rule(
        model.SLEEPER,
        (r"WHILE TRUE", r"(WAIT \w+CV|WorkQueue\.Wait)"),
        forbidden=(r"(BoundedBuffer|Enqueue\[|Dequeue\[)",),
    ),
    Rule(
        model.ONESHOT,
        (r"Process\.Pause",),
        forbidden=(r"WHILE TRUE|ENDLOOP",),
    ),
    Rule(
        model.PUMP,
        (r"WHILE TRUE",
         r"(BoundedBuffer\.(Get|Put)|UnixIO\.Read|Enqueue\[)"),
    ),
    Rule(
        model.DEFER,
        (r"Detach\[FORK",),
        forbidden=(r"WHILE TRUE.*FORK|FORK.*ENDLOOP",),
    ),
    # The critical-thread flavour of defer work: an event loop whose body
    # is just "notice and fork".
    Rule(
        model.DEFER,
        (r"WHILE TRUE", r"Detach\[FORK", r"(keep watching|critical)"),
    ),
]


def classify(fragment: CodeFragment) -> str:
    """Assign a paradigm to one fragment; "unknown" if no rule fires."""
    for rule in RULES:
        if rule.matches(fragment.text):
            return rule.paradigm
    return model.UNKNOWN


def census(fragments: Iterable[CodeFragment], system: str) -> CensusCount:
    """Classify a corpus into a Table 4 column."""
    counts = {paradigm: 0 for paradigm in model.PARADIGMS}
    for fragment in fragments:
        counts[classify(fragment)] += 1
    return CensusCount(system=system, counts=counts)


def accuracy(fragments: Iterable[CodeFragment]) -> float:
    """Fraction of fragments whose classification matches ground truth."""
    total = 0
    correct = 0
    for fragment in fragments:
        total += 1
        if classify(fragment) == fragment.label:
            correct += 1
    return correct / total if total else 0.0
