"""Corpus generator: Mesa-flavoured code fragments per paradigm.

Each paradigm has a small family of templates drawn from the idioms the
paper describes (print-a-document deferrers, bounded-buffer pumps,
guarded-button one-shots, window-repaint deadlock avoiders, ...).  The
generator varies identifiers, comments and incidental structure so the
classifier cannot succeed by exact string matching — it has to use the
same kinds of cues a reading researcher would (FORK placement, loops
around WAITs, sleep-then-act shapes, queue-service loops).

Fragments labelled ``unknown`` are deliberately idiosyncratic: thread
creation whose purpose is not evident from the fragment, matching the
paper's "Unknown or other" row (which is large for GVX "due to our
relative unfamiliarity with this code").
"""

from __future__ import annotations

from typing import Callable

from repro.corpus import model
from repro.corpus.model import CodeFragment
from repro.kernel.rng import DeterministicRng

_SUBSYSTEMS = [
    "Viewer", "TipTable", "Typescript", "FileSys", "Carton", "Imager",
    "Walnut", "Grapevine", "PressPrinter", "TSetter", "Cypress", "Saffron",
    "GargoyleKernel", "WindowMgr", "DocFmt", "NetStream", "CacheMgr",
]

_VERBS = ["Update", "Repaint", "Flush", "Notify", "Collect", "Index",
          "Render", "Spool", "Poll", "Audit", "Expand", "Reconcile"]

_NOUNS = ["Doc", "Page", "Window", "Cache", "Queue", "Glyph", "Stream",
          "Folder", "Msg", "Font", "Region", "Session"]


class CorpusGenerator:
    """Builds a labelled corpus for one system."""

    def __init__(self, system: str, seed: int) -> None:
        self.system = system
        self.rng = DeterministicRng(seed).fork(f"corpus-{system}")
        self._fragment_id = 0
        self._templates: dict[str, list[Callable[[str, str], str]]] = {
            model.DEFER: [self._t_defer_return, self._t_defer_window,
                          self._t_defer_critical, self._t_defer_mail],
            model.PUMP: [self._t_pump_buffer, self._t_pump_device,
                         self._t_pump_preprocess],
            model.SLACK: [self._t_slack, self._t_slack_replace],
            model.SLEEPER: [self._t_sleeper_timeout, self._t_sleeper_callback,
                            self._t_sleeper_watchdog],
            model.ONESHOT: [self._t_oneshot_delay, self._t_oneshot_guard],
            model.DEADLOCK_AVOID: [self._t_deadlock_locks,
                                   self._t_deadlock_callback],
            model.REJUVENATE: [self._t_rejuvenate, self._t_rejuvenate_stack],
            model.SERIALIZER: [self._t_serializer, self._t_serializer_events],
            model.ENCAPSULATED: [self._t_encapsulated],
            model.EXPLOITER: [self._t_exploiter],
            model.UNKNOWN: [self._t_unknown_a, self._t_unknown_b,
                            self._t_unknown_c],
        }

    def generate(self, distribution: dict[str, int]) -> list[CodeFragment]:
        """One fragment per unit of the distribution, shuffled module
        names, deterministic for a given seed."""
        fragments = []
        for paradigm, count in distribution.items():
            for _ in range(count):
                fragments.append(self._make(paradigm))
        return fragments

    # -- internals -----------------------------------------------------

    def _make(self, paradigm: str) -> CodeFragment:
        self._fragment_id += 1
        module = (
            f"{self.rng.choice(_SUBSYSTEMS)}Impl"
        )
        verb = self.rng.choice(_VERBS)
        noun = self.rng.choice(_NOUNS)
        procedure = f"{verb}{noun}"
        template = self.rng.choice(self._templates[paradigm])
        text = template(verb, noun)
        return CodeFragment(
            fragment_id=self._fragment_id,
            system=self.system,
            module=module,
            procedure=procedure,
            text=text,
            label=paradigm,
        )

    def _maybe_comment(self, comment: str) -> str:
        return f"-- {comment}\n" if self.rng.chance(0.6) else ""

    # -- defer work ------------------------------------------------------

    def _t_defer_return(self, verb: str, noun: str) -> str:
        return (
            self._maybe_comment(f"{verb.lower()} can happen after we return")
            + f"Do{verb}: PUBLIC PROC [{noun.lower()}: {noun}] = {{\n"
            f"  Process.Detach[FORK {verb}{noun}Internal[{noun.lower()}]];\n"
            f"  RETURN;  -- latency: caller does not wait\n"
            f"}};"
        )

    def _t_defer_window(self, verb: str, noun: str) -> str:
        return (
            f"{verb}Cmd: Commander.CommandProc = {{\n"
            f"  -- results will be reported in a separate window\n"
            f"  Process.Detach[FORK {verb}AndReport[cmd]];\n"
            f"}};"
        )

    def _t_defer_critical(self, verb: str, noun: str) -> str:
        return (
            f"-- critical thread: note the work, fork the rest\n"
            f"WHILE TRUE DO\n"
            f"  event ← InputFocus.Next[];\n"
            f"  Process.Detach[FORK Handle{noun}[event]];  -- keep watching\n"
            f"ENDLOOP;"
        )

    # -- pumps ------------------------------------------------------------

    def _t_pump_buffer(self, verb: str, noun: str) -> str:
        return (
            self._maybe_comment("pipeline stage")
            + f"{verb}Pump: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    item ← BoundedBuffer.Get[in{noun}Q];\n"
            f"    item ← Transform{noun}[item];\n"
            f"    BoundedBuffer.Put[out{noun}Q, item];\n"
            f"  ENDLOOP;\n"
            f"}};  -- started with FORK {verb}Pump[]"
        )

    def _t_pump_device(self, verb: str, noun: str) -> str:
        return (
            f"Read{noun}Loop: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    bytes ← UnixIO.Read[fd];  -- external device is the source\n"
            f"    Enqueue[cooked{noun}Q, Preprocess[bytes]];\n"
            f"  ENDLOOP;\n"
            f"}};  -- FORK Read{noun}Loop[] at init"
        )

    # -- slack processes ---------------------------------------------------

    def _t_slack(self, verb: str, noun: str) -> str:
        return (
            f"-- adds latency to merge {noun.lower()} requests: downstream\n"
            f"-- transaction cost is high\n"
            f"Buffer{noun}Thread: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    first ← Dequeue[{noun.lower()}Q];\n"
            f"    Process.YieldButNotToMe[];  -- let producers add more\n"
            f"    batch ← MergeOverlapping[first, DrainQueue[{noun.lower()}Q]];\n"
            f"    SendBatch[server, batch];\n"
            f"  ENDLOOP;\n"
            f"}};"
        )

    # -- sleepers ------------------------------------------------------------

    def _t_sleeper_timeout(self, verb: str, noun: str) -> str:
        interval = self.rng.choice(["50", "1000", "tickMsec", "checkInterval"])
        return (
            f"{verb}Daemon: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    WAIT {noun.lower()}CV;  -- timeout {interval} ms\n"
            f"    Age{noun}Cache[];  -- run briefly, sleep again\n"
            f"  ENDLOOP;\n"
            f"}};"
        )

    def _t_sleeper_callback(self, verb: str, noun: str) -> str:
        return (
            f"-- service callbacks moved off the time-critical path\n"
            f"{verb}Watcher: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    work ← WorkQueue.Wait[{noun.lower()}Events];\n"
            f"    client.callback[work];\n"
            f"  ENDLOOP;\n"
            f"}};"
        )

    # -- one-shots --------------------------------------------------------------

    def _t_oneshot_delay(self, verb: str, noun: str) -> str:
        return (
            f"Later{verb}: PROC = {{\n"
            f"  Process.Pause[Process.MsecToTicks[armingPeriod]];\n"
            f"  {verb}{noun}[];  -- run once, then go away\n"
            f"}};"
        )

    def _t_oneshot_guard(self, verb: str, noun: str) -> str:
        return (
            "-- guarded button: must be pressed twice, in close but not\n"
            "-- too close succession\n"
            "ArmGuard: PROC = {\n"
            "  Process.Pause[armTicks];\n"
            "  SetLabel[button, \"Button\"];\n"
            "  Process.Pause[windowTicks];\n"
            "  IF NOT invoked THEN SetLabel[button, \"Butten\"];\n"
            "};"
        )

    # -- deadlock avoiders ----------------------------------------------------

    def _t_deadlock_locks(self, verb: str, noun: str) -> str:
        return (
            f"-- we already hold some, but not all, of the locks needed\n"
            f"-- for repainting: fork and let the painter lock in order\n"
            f"Adjust{noun}: ENTRY PROC = {{\n"
            f"  Move{noun}Boundary[];\n"
            f"  Process.Detach[FORK Repaint{noun}[upper]];\n"
            f"  Process.Detach[FORK Repaint{noun}[lower]];\n"
            f"}};"
        )

    def _t_deadlock_callback(self, verb: str, noun: str) -> str:
        return (
            "-- forked so the service can release its locks and is\n"
            "-- insulated from errors in the client callback\n"
            "FOR each: Finalizable IN finalizeList DO\n"
            "  Process.Detach[FORK each.finalize[each.data]];\n"
            "ENDLOOP;"
        )

    # -- task rejuvenation ----------------------------------------------------

    def _t_rejuvenate(self, verb: str, noun: str) -> str:
        return (
            f"{verb}Dispatcher: PROC = {{\n"
            f"  dispatch ! UNCAUGHT => {{\n"
            f"    -- this thread is in trouble; make a new copy of it\n"
            f"    Process.Detach[FORK {verb}Dispatcher[]];\n"
            f"    CONTINUE;\n"
            f"  }};\n"
            f"}};"
        )

    # -- serializers -----------------------------------------------------------

    def _t_serializer(self, verb: str, noun: str) -> str:
        return (
            f"-- one thread preserves the ordering of {noun.lower()} events\n"
            f"{noun}Serializer: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    proc ← MBQueue.Dequeue[{noun.lower()}Context];\n"
            f"    proc[];  -- call procedures in the order received\n"
            f"  ENDLOOP;\n"
            f"}};"
        )

    # -- encapsulated forks -------------------------------------------------------

    def _t_encapsulated(self, verb: str, noun: str) -> str:
        package = self.rng.choice(
            ["DelayedFork.Create", "PeriodicalFork.Create",
             "PeriodicalProcess.Register", "MBQueue.Create"]
        )
        return (
            f"init: {package}[{verb}{noun}, {self.rng.randint(1, 60)}];"
            f"  -- package captures the forking paradigm"
        )

    # -- concurrency exploiters ----------------------------------------------------

    def _t_exploiter(self, verb: str, noun: str) -> str:
        return (
            f"-- use all processors for the {noun.lower()} pass\n"
            f"FOR i IN [0..numProcessors) DO\n"
            f"  workers[i] ← FORK {verb}Stripe[i, numProcessors];\n"
            f"ENDLOOP;\n"
            f"FOR i IN [0..numProcessors) DO [] ← JOIN workers[i]; ENDLOOP;"
        )

    def _t_defer_mail(self, verb: str, noun: str) -> str:
        return (
            f"Send{noun}: PUBLIC PROC [msg: {noun}] = {{\n"
            f"  -- queue it and return; delivery happens later\n"
            f"  Process.Detach[FORK Deliver{noun}[msg]];\n"
            f"}};"
        )

    def _t_pump_preprocess(self, verb: str, noun: str) -> str:
        return (
            f"-- tokens just appear in a queue: conceptually simpler\n"
            f"Preprocess{noun}: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    raw ← BoundedBuffer.Get[raw{noun}Q];\n"
            f"    Enqueue[cooked{noun}Q, Cook[raw]];\n"
            f"  ENDLOOP;\n"
            f"}};"
        )

    def _t_slack_replace(self, verb: str, noun: str) -> str:
        return (
            f"-- replace earlier data with later data before output\n"
            f"Coalesce{noun}: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    first ← Dequeue[{noun.lower()}Updates];\n"
            f"    Process.Pause[slackTicks];  -- add latency on purpose\n"
            f"    latest ← CoalesceLatest[first, DrainQueue[{noun.lower()}Updates]];\n"
            f"    Ship[latest];\n"
            f"  ENDLOOP;\n"
            f"}};"
        )

    def _t_sleeper_watchdog(self, verb: str, noun: str) -> str:
        return (
            f"{noun}Watchdog: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    WAIT watchdogCV;  -- check connection every T seconds\n"
            f"    IF Stale[{noun.lower()}Conn] THEN Close[{noun.lower()}Conn];\n"
            f"  ENDLOOP;\n"
            f"}};"
        )

    def _t_rejuvenate_stack(self, verb: str, noun: str) -> str:
        return (
            f"-- stack overflow: recovery impossible in this thread\n"
            f"{verb}Guard: PROC = {{\n"
            f"  body ! StackOverflow, UNCAUGHT => {{\n"
            f"    Process.Detach[FORK Report{noun}Trouble[]];\n"
            f"    Process.Detach[FORK {verb}Guard[]];  -- make two of them!\n"
            f"  }};\n"
            f"}};"
        )

    def _t_serializer_events(self, verb: str, noun: str) -> str:
        return (
            f"-- events arrive from a number of different sources; one\n"
            f"-- thread preserves the order received\n"
            f"{noun}EventLoop: PROC = {{\n"
            f"  WHILE TRUE DO\n"
            f"    e ← MBQueue.Dequeue[{noun.lower()}Q];\n"
            f"    e.proc[e.data];\n"
            f"  ENDLOOP;\n"
            f"}};"
        )

    # -- unknown / other ---------------------------------------------------------

    def _t_unknown_c(self, verb: str, noun: str) -> str:
        return (
            f"-- (inherited from Pilot days; semantics unclear)\n"
            f"IF bootCount > {self.rng.randint(1, 5)} THEN\n"
            f"  watcher{noun} ← FORK Opaque{verb}[world, state];"
        )

    def _t_unknown_a(self, verb: str, noun: str) -> str:
        return (
            f"-- historical; see AR {self.rng.randint(1000, 9999)}\n"
            f"IF mode = compat THEN trap ← FORK {verb}Shim[state^];"
        )

    def _t_unknown_b(self, verb: str, noun: str) -> str:
        return (
            f"{verb}Hack: PROC = {{\n"
            f"  -- temporary scaffolding, do not ship\n"
            f"  p ← FORK Helper{self.rng.randint(2, 9)}[];\n"
            f"  state.save[p];\n"
            f"}};"
        )
