"""Decision traces and the schedule controller.

A kernel run is nondeterministic at a small, enumerable set of *decision
sites*: the pick among equal-best ready threads, the fair-share lottery
draw, the donation target when several candidates tie, the optional
extra wake of an at-least-one NOTIFY, store-buffer drains, and every
fault-plan sample (steal this NOTIFY?  wake which waiter spuriously?
kill whom?).  Each site calls ``Kernel.decide``, which numbers the
site's decisions and takes the site's *default* unless a
:class:`ScheduleController` is attached via
``KernelConfig.schedule_controller``.  The controller turns a run into a
pure function of ``(config, seed, decisions)``:

* **record** — no chooser, no forced choices: every decision takes its
  default and is appended to the trace.  The kernel numbers decisions
  the same way with or without a controller, so a recorded run is
  byte-identical to an uncontrolled one, fault decisions included; the
  golden record/replay property test and the fault record-mode test
  pin this.
* **drive** — a ``chooser`` callback (an exploration strategy) answers
  each :class:`DecisionPoint`, or returns None to take the default.
* **replay** — ``force`` pins the first ``len(force)`` decisions, in
  global order, to recorded choices; later sites fall back to the
  default or, under ``tail="baseline"``, to choice 0.

Choice 0 is by convention the *quietest* option at every site: FIFO
head at pick sites, "hold buffers" at ``mem.drain``, no injection at
fault sites.  That makes the all-zero schedule the canonical baseline,
which is what counterexample minimization (:mod:`repro.explore.minimize`)
shrinks toward — a minimal trace is just its non-zero decisions.

Defaults never perturb unrelated RNG streams: scheduler-owned sites
(lottery, extra wake) draw from the same stream either way, and fault
sites derive a fresh stream per decision (``fork(f"{kind}:{seq}")``),
so forcing any prefix leaves every later default exactly where it was
— the property that makes a minimized trace replay its fault sequence
byte-for-byte.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

#: Unforced, unchosen sites take the site's default (what
#: ``Kernel.decide`` returns with no controller attached).
TAIL_DEFAULT = "default"
#: Unforced, unchosen sites take choice 0 (FIFO pick, no fault).  Used
#: by minimization so a shrunk prefix runs against a quiet tail.
TAIL_BASELINE = "baseline"


@dataclass(frozen=True)
class DecisionPoint:
    """What a chooser sees: a site about to decide, without the answer."""

    site: str
    #: Per-site sequence number (the seq-th time this site fired).
    seq: int
    #: Global decision index within the run.
    index: int
    #: Number of alternatives; choices are integers in ``[0, n)``.
    n: int
    #: Simulated time of the decision.
    time: int
    #: Human-readable alternative names (thread names at pick sites;
    #: may be empty for boolean sites).
    labels: tuple[str, ...] = ()


@dataclass(frozen=True)
class Decision:
    """One resolved choice point."""

    site: str
    seq: int
    n: int
    choice: int
    #: True when the choice came from a forced trace, not the default
    #: or a chooser.
    forced: bool
    time: int
    labels: tuple[str, ...] = ()

    def describe(self) -> str:
        # Labels map 1:1 onto choices only at pick-style sites; boolean
        # fire?-sites carry candidate names as context, not as options.
        if len(self.labels) == self.n:
            picked = self.labels[self.choice]
        elif self.n == 2:
            picked = "yes" if self.choice else "no"
        else:
            picked = str(self.choice)
        extra = ""
        if len(self.labels) > 1 and len(self.labels) == self.n:
            extra = f"  (of: {', '.join(self.labels)})"
        elif self.labels and len(self.labels) != self.n:
            extra = f"  (candidates: {', '.join(self.labels)})"
        mark = "  [forced]" if self.forced else ""
        return (
            f"t={self.time:>9}us  {self.site}#{self.seq}"
            f" -> {picked}{extra}{mark}"
        )


@dataclass
class DecisionTrace:
    """The ordered decisions of one run, JSON round-trippable."""

    decisions: list[Decision] = field(default_factory=list)
    #: Free-form provenance: scenario, strategy, seed, violation...
    meta: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.decisions)

    @property
    def choices(self) -> list[int]:
        """The positional choice list — all a replay needs to force."""
        return [d.choice for d in self.decisions]

    def non_baseline(self) -> list[Decision]:
        """The decisions that differ from the all-zero baseline — the
        essence of a minimized counterexample."""
        return [d for d in self.decisions if d.choice != 0]

    def divergence(self, replayed: "DecisionTrace") -> "str | None":
        """Where ``replayed`` stops matching this trace — the first
        decision whose site, alternative count or choice differs, or a
        differing length — or None when the two agree."""
        pairs = zip(self.decisions, replayed.decisions)
        for index, (saved, again) in enumerate(pairs):
            if (saved.site, saved.n, saved.choice) != (again.site, again.n, again.choice):
                return (
                    f"decision {index}: saved {saved.site} {saved.choice}/"
                    f"{saved.n}, replayed {again.site} {again.choice}/{again.n}"
                )
        if len(self) != len(replayed):
            return f"saved {len(self)} decisions, replayed {len(replayed)}"
        return None

    def render(self, *, only_non_baseline: bool = False) -> str:
        """Human-readable interleaving, one line per decision."""
        shown = self.non_baseline() if only_non_baseline else self.decisions
        lines = [d.describe() for d in shown]
        if only_non_baseline:
            quiet = len(self.decisions) - len(shown)
            if quiet:
                lines.append(f"({quiet} baseline decisions elided)")
        return "\n".join(lines) if lines else "(no decisions)"

    def to_dict(self) -> dict:
        return {
            "meta": self.meta,
            "choices": self.choices,
            "decisions": [
                {
                    "site": d.site,
                    "seq": d.seq,
                    "n": d.n,
                    "choice": d.choice,
                    "forced": d.forced,
                    "time": d.time,
                    "labels": list(d.labels),
                }
                for d in self.decisions
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DecisionTrace":
        decisions = [
            Decision(
                site=d["site"],
                seq=d["seq"],
                n=d["n"],
                choice=d["choice"],
                forced=d.get("forced", False),
                time=d.get("time", 0),
                labels=tuple(d.get("labels", ())),
            )
            for d in data.get("decisions", [])
        ]
        return cls(decisions=decisions, meta=dict(data.get("meta", {})))

    def save(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")

    @classmethod
    def load(cls, path: str) -> "DecisionTrace":
        with open(path) as handle:
            return cls.from_dict(json.load(handle))


#: A chooser answers a DecisionPoint with a choice, or None for default.
Chooser = Callable[[DecisionPoint], "int | None"]


def _labels(site: str, candidates: Any) -> tuple[str, ...]:
    """Name a decision's candidates for the trace: threads by name; a
    ``mem.drain`` site's store-buffer options (``(key, label)`` pairs)
    by label, after its choice 0."""
    if site == "mem.drain":
        return ("hold buffers",) + tuple(label for _key, label in candidates)
    return tuple(candidate.name for candidate in candidates)


class ScheduleController:
    """Forces, chooses and records the kernel's decisions.

    Attach via ``KernelConfig.schedule_controller``.  Thread-unsafe by
    design (the kernel is single-threaded); one controller per run.

    ``Kernel.decide`` numbers each decision and hands it to
    :meth:`resolve`: forced choices (positional, from a prior trace)
    win, then the chooser, then the tail policy (``default(seq)`` or
    baseline 0).  Every resolution is recorded.
    """

    def __init__(
        self,
        *,
        chooser: Chooser | None = None,
        force: "Sequence[int] | DecisionTrace | None" = None,
        tail: str = TAIL_DEFAULT,
        meta: dict | None = None,
    ) -> None:
        if tail not in (TAIL_DEFAULT, TAIL_BASELINE):
            raise ValueError(f"bad tail policy: {tail!r}")
        if isinstance(force, DecisionTrace):
            force = force.choices
        self.chooser = chooser
        self.force: list[int] | None = (
            list(force) if force is not None else None
        )
        self.tail = tail
        self.trace = DecisionTrace(meta=dict(meta or {}))
        #: Forced or chosen values that fell outside ``[0, n)`` and were
        #: clamped — a replay diverging from its recording shows up here.
        self.divergences = 0

    def resolve(
        self,
        site: str,
        seq: int,
        n: int,
        default: Callable[[int], int],
        candidates: Any,
        now: int,
    ) -> int:
        """Answer the ``seq``-th decision at ``site`` (``n >= 2``
        alternatives, at simulated time ``now``); returns a choice in
        ``[0, n)``."""
        index = len(self.trace.decisions)
        labels = _labels(site, candidates)
        forced = False
        choice: int | None = None
        if self.force is not None and index < len(self.force):
            choice = self.force[index]
            forced = True
        elif self.chooser is not None:
            choice = self.chooser(DecisionPoint(site, seq, index, n, now, labels))
        if choice is None:
            choice = 0 if self.tail == TAIL_BASELINE else default(seq)
        choice = int(choice)
        if not 0 <= choice < n:
            self.divergences += 1
            choice = max(0, min(choice, n - 1))
        self.trace.decisions.append(
            Decision(site, seq, n, choice, forced, now, labels)
        )
        return choice
