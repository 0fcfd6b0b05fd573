"""Schedule exploration: the controller seam, the strategies, the
driver, and counterexample minimization.

The two load-bearing properties:

* **Record == golden == replay** — a recording controller changes
  nothing (every pinned golden hash still matches), and forcing the
  recorded choices back reproduces the identical run.
* **Minimal counterexamples are pinned** — each directed scenario's
  known bug is found within budget, shrinks to the expected minimal
  forced schedule, and replays deterministically (same fingerprint on
  two independent replays).
"""

import dataclasses
from types import SimpleNamespace

import pytest

from repro.analysis.scenarios import SCENARIOS, resolve
from repro.explore import (
    STRATEGIES,
    DecisionTrace,
    ExhaustivePrefixStrategy,
    ScheduleController,
    TAIL_BASELINE,
    TAIL_DEFAULT,
    all_waiting,
    explore,
    make_strategy,
    minimize,
    replay,
    run_schedule,
)
from repro.explore.trace import Decision
from repro.kernel import Kernel, KernelConfig


def _const(value):
    def default(_seq):
        return default.calls.append(_seq) or value

    default.calls = []
    return default


def _kernel(controller=None):
    return Kernel(KernelConfig(schedule_controller=controller))


def _named(*names):
    return [SimpleNamespace(name=name) for name in names]


class TestScheduleController:
    """The seam: ``Kernel.decide`` numbers each decision once, and the
    controller forces, chooses or records it."""

    def test_single_alternative_is_not_a_decision(self):
        controller = ScheduleController()
        kernel = _kernel(controller)
        default = _const(1)
        assert kernel.decide("sched.pick", 1, default) == 0
        assert kernel.decide("sched.pick", 0, default) == 0
        assert len(controller.trace) == 0
        assert default.calls == []
        # Nor does it use up a sequence number.
        kernel.decide("sched.pick", 2, default)
        assert [d.seq for d in controller.trace.decisions] == [0]

    def test_default_tail_calls_default_with_site_seq(self):
        for controller in (ScheduleController(tail=TAIL_DEFAULT), None):
            kernel = _kernel(controller)
            default = _const(2)
            assert kernel.decide("sched.pick", 3, default) == 2
            assert kernel.decide("sched.pick", 3, default) == 2
            assert kernel.decide("fault.kill", 3, default) == 2
            # Per-site sequence numbers, the same with or without a
            # controller.
            assert default.calls == [0, 1, 0]

    def test_baseline_tail_never_consults_the_default(self):
        kernel = _kernel(ScheduleController(tail=TAIL_BASELINE))
        default = _const(1)
        assert kernel.decide("sched.pick", 4, default) == 0
        assert default.calls == []

    def test_forced_choices_win_positionally(self):
        controller = ScheduleController(
            chooser=lambda point: 1, force=[2, 0], tail=TAIL_BASELINE
        )
        kernel = _kernel(controller)
        assert kernel.decide("sched.pick", 3, _const(0)) == 2
        assert kernel.decide("fault.spurious", 2, _const(0)) == 0
        # Past the forced prefix the chooser takes over.
        assert kernel.decide("sched.pick", 3, _const(0)) == 1
        forced_flags = [d.forced for d in controller.trace.decisions]
        assert forced_flags == [True, True, False]

    def test_out_of_range_choice_is_clamped_and_counted(self):
        controller = ScheduleController(force=[7], tail=TAIL_BASELINE)
        assert _kernel(controller).decide("sched.pick", 3, _const(0)) == 2
        assert controller.divergences == 1

    def test_trace_json_round_trip(self, tmp_path):
        controller = ScheduleController(force=[1], tail=TAIL_BASELINE)
        kernel = _kernel(controller)
        kernel.decide("sched.pick", 3, _const(0), _named("a", "b", "c"))
        kernel.decide("fault.drop_notify", 2, _const(0))
        controller.trace.meta["scenario"] = "unit"
        path = tmp_path / "trace.json"
        controller.trace.save(str(path))
        loaded = DecisionTrace.load(str(path))
        assert loaded.choices == controller.trace.choices == [1, 0]
        assert loaded.meta == {"scenario": "unit"}
        assert loaded.decisions[0].labels == ("a", "b", "c")
        assert loaded.decisions[0].forced is True

    def test_render_marks_non_baseline_decisions(self):
        trace = DecisionTrace(decisions=[
            Decision("sched.pick", 0, 3, 1, True, 50, ("a", "b", "c")),
            Decision("fault.drop_notify", 0, 2, 0, False, 99, ()),
        ])
        text = trace.render()
        assert "sched.pick#0 -> b" in text
        assert "(of: a, b, c)" in text
        assert "[forced]" in text
        assert "fault.drop_notify#0 -> no" in text


class TestGoldenRecordReplay:
    """Satellite: record-then-replay is byte-identical on every golden
    scenario — and recording itself does not disturb the pinned hashes."""

    def test_every_golden_scenario_records_and_replays_identically(self):
        from repro.analysis.golden import golden_run, load_golden

        golden = load_golden()
        for scenario in resolve("golden"):
            name = scenario.name
            recorder = ScheduleController(tail=TAIL_DEFAULT)
            recorded = golden_run(scenario, {"schedule_controller": recorder})
            assert recorded == golden[name], (
                f"{name}: recording controller changed the schedule"
            )
            replayer = ScheduleController(
                force=recorder.trace.choices, tail=TAIL_DEFAULT
            )
            replayed = golden_run(scenario, {"schedule_controller": replayer})
            assert replayed == recorded, f"{name}: replay diverged"
            assert replayer.divergences == 0, f"{name}: clamped choices"

    def test_recording_does_not_perturb_a_tso_run(self):
        """Record mode on a store-buffer model: every mem.drain site
        resolves to choice 0 ("hold buffers", the uncontrolled
        behaviour), so recording is invisible to the run — the same
        property the golden scenarios pin for sc/weak, extended to the
        drain seam."""
        from repro.analysis.golden import fingerprint
        from repro.kernel import KernelConfig
        from repro.memmodel.litmus import litmus_scenario

        scenario, _state = litmus_scenario("sb", "tso")

        def run_once(controller):
            config = KernelConfig(seed=0)
            if controller is not None:
                config.schedule_controller = controller
            kernel, shutdown = scenario.build(config)
            try:
                kernel.run_for(scenario.horizon)
                return fingerprint(kernel)
            finally:
                shutdown()

        uncontrolled = run_once(None)
        recorder = ScheduleController(tail=TAIL_DEFAULT)
        recorded = run_once(recorder)
        assert recorded == uncontrolled
        drains = [d for d in recorder.trace.decisions
                  if d.site == "mem.drain"]
        assert drains, "a tso run must offer drain decisions"
        assert all(d.choice == 0 for d in drains)

    def test_notify_extra_records_and_replays_identically(self):
        """The at-least-one NOTIFY's extra wake (``sched.notify_extra``),
        which no golden entry reaches: recording it changes nothing, the
        recorded choices replay the run, and driving every extra wake to
        "no" and to "yes" gives two different runs that replay too."""
        from repro.analysis.golden import fingerprint
        from repro.kernel import msec
        from repro.kernel import primitives as p
        from repro.sync import ConditionVariable, Monitor

        def run_once(controller=None):
            kernel = Kernel(KernelConfig(
                seed=1, trace=True, notify_wakes="at_least_one",
                at_least_one_extra_prob=0.5, schedule_controller=controller,
            ))
            monitor = Monitor("m")
            cv = ConditionVariable(monitor, "cv")

            def waiter():
                while True:
                    yield p.Enter(monitor)
                    try:
                        yield p.Wait(cv)
                    finally:
                        yield p.Exit(monitor)

            def notifier():
                for _ in range(8):
                    yield p.Pause(msec(10))
                    yield p.Enter(monitor)
                    try:
                        yield p.Notify(cv)
                    finally:
                        yield p.Exit(monitor)

            for index in range(4):
                kernel.fork_root(waiter, name=f"w{index}")
            kernel.fork_root(notifier, name="notifier")
            kernel.run_for(msec(500))  # pauses end on 50 ms ticks
            result = fingerprint(kernel)
            kernel.shutdown()
            return result

        def extra_wakes(controller):
            return [d.choice for d in controller.trace.decisions
                    if d.site == "sched.notify_extra"]

        uncontrolled = run_once()
        recorder = ScheduleController(tail=TAIL_DEFAULT)
        assert run_once(recorder) == uncontrolled
        assert len(extra_wakes(recorder)) == 8  # one per NOTIFY
        replayer = ScheduleController(force=recorder.trace.choices)
        assert run_once(replayer) == uncontrolled
        assert replayer.divergences == 0
        runs = []
        for answer in (0, 1):
            steer = ScheduleController(
                chooser=lambda point: (
                    answer if point.site == "sched.notify_extra" else None
                )
            )
            driven = run_once(steer)
            assert extra_wakes(steer) == [answer] * 8
            again = ScheduleController(force=steer.trace.choices)
            assert run_once(again) == driven
            runs.append(driven)
        assert runs[0] != runs[1]

    def test_mem_drain_decisions_record_and_replay_identically(self):
        """A driven tso run that commits buffered stores at explored
        points replays byte-identical from its recorded choices."""
        from repro.explore.driver import run_schedule
        from repro.explore.strategies import make_strategy
        from repro.memmodel.litmus import litmus_scenario

        scenario, _state = litmus_scenario("sb", "tso")
        strategy = make_strategy("random", seed=7)
        drained = 0
        for index in range(6):
            controller = strategy.controller(index)
            driven = run_schedule(scenario, controller, seed=0, index=index)
            strategy.observe(driven.trace)
            drained += sum(1 for d in driven.trace.decisions
                           if d.site == "mem.drain" and d.choice > 0)
            again = replay(scenario, driven.trace.choices, seed=0)
            assert again.fingerprint == driven.fingerprint, f"run {index}"
            assert again.trace.choices == driven.trace.choices
        assert drained, "the random walk must exercise drain choices"


class TestDirectedExploration:
    def test_wait_if_found_and_minimized_within_budget(self):
        scenario = SCENARIOS["wait-if"]
        result = explore(
            scenario, make_strategy("random", seed=0), budget=200, seed=0
        )
        assert result.ok
        assert result.found is not None
        # The deadlock ends the schedule early; no grinding to horizon.
        assert result.found.stopped_at < scenario.horizon
        assert "partial deadlock" in result.found.violation
        minimized = result.minimized
        assert minimized.deterministic
        # One spurious wake anywhere in the partner's 400 ms window is
        # the whole bug: exactly one non-baseline decision survives.
        assert sum(1 for c in minimized.choices if c) == 1
        assert minimized.violation.startswith("partial deadlock")

    def test_wait_if_full_failing_trace_replays_to_same_fingerprint(self):
        # The forced-replay composition with the fault plan (per-decision
        # forked streams): replaying the complete recorded schedule of a
        # failing run reproduces its fingerprint bit-for-bit.
        scenario = SCENARIOS["wait-if"]
        result = explore(
            scenario, make_strategy("random", seed=0), budget=200, seed=0
        )
        failing = result.found
        again = replay(scenario, failing.trace.choices, seed=failing.seed)
        assert again.violation == failing.violation
        assert again.fingerprint == failing.fingerprint

    def test_abba_minimizes_to_the_empty_schedule(self):
        result = explore(
            SCENARIOS["abba"], make_strategy("random", seed=0),
            budget=10, seed=0,
        )
        assert result.ok
        # ABBA deadlocks on *every* schedule, including the all-baseline
        # one — the minimal counterexample forces nothing at all.
        assert result.minimized.choices == []
        assert result.minimized.deterministic

    def test_stolen_notify_exhaustive_finds_the_one_bit(self):
        result = explore(
            SCENARIOS["stolen-notify"],
            make_strategy("exhaustive"),
            budget=10, seed=0,
        )
        assert result.ok
        # Schedule 0 is the quiet baseline; schedule 1 flips the single
        # drop_notify decision, which IS the bug.
        assert result.found.index == 1
        assert result.minimized.choices == [1]
        assert result.minimized.deterministic
        sites = [d.site for d in result.minimized.outcome.trace.decisions]
        assert sites[0] == "fault.drop_notify"

    def test_minimized_wait_if_renders_a_readable_interleaving(self):
        result = explore(
            SCENARIOS["wait-if"], make_strategy("random", seed=0),
            budget=200, seed=0,
        )
        text = result.minimized.render()
        assert "minimal counterexample for 'wait-if'" in text
        assert "deterministic" in text
        assert "fault.spurious" in text
        assert "violation: partial deadlock" in text


class TestCleanExploration:
    def test_producer_consumer_survives_random_schedules(self):
        result = explore(
            SCENARIOS["producer-consumer"],
            make_strategy("random", seed=0),
            budget=20, seed=0,
        )
        assert result.ok
        assert result.schedules_run == 20
        assert result.found is None and result.unexpected is None
        assert not result.harness_failures

    def test_cedar_world_survives_forced_scheduler_picks(self):
        result = explore(
            SCENARIOS["cedar-idle"], make_strategy("random", seed=1),
            budget=5, seed=0,
        )
        assert result.ok
        assert result.schedules_run == 5

    def test_producer_consumer_survives_pct_schedules(self):
        result = explore(
            SCENARIOS["producer-consumer"],
            make_strategy("pct", seed=0),
            budget=10, seed=0,
        )
        assert result.ok


class TestStrategies:
    def test_exhaustive_successor_is_lexicographic(self):
        strategy = ExhaustivePrefixStrategy()

        def observed(choices, ns):
            trace = DecisionTrace(decisions=[
                Decision("sched.pick", i, n, c, False, 0)
                for i, (c, n) in enumerate(zip(choices, ns))
            ])
            strategy.observe(trace)
            return strategy._next_prefix

        assert observed([0, 0], [2, 3]) == [0, 1]
        assert observed([0, 1], [2, 3]) == [0, 2]
        assert observed([0, 2], [2, 3]) == [1]
        assert observed([1, 0], [2, 3]) == [1, 1]
        assert observed([1, 2], [2, 3]) is None
        assert strategy.exhausted

    def test_exhaustive_horizon_bounds_the_tree(self, monkeypatch):
        monkeypatch.setattr(
            "repro.explore.strategies.EXHAUSTIVE_HORIZON", 1
        )
        strategy = ExhaustivePrefixStrategy()
        trace = DecisionTrace(decisions=[
            Decision("sched.pick", 0, 2, 1, False, 0),
            Decision("sched.pick", 1, 5, 0, False, 0),  # beyond horizon
        ])
        strategy.observe(trace)
        assert strategy.exhausted  # position 1 is out of bounds, 0 is maxed

    def test_exhaustive_terminates_on_stolen_notify(self):
        # The whole bounded tree is two schedules; the budget is not
        # the thing that stops the loop.
        scenario = SCENARIOS["stolen-notify"]
        strategy = make_strategy("exhaustive")
        seen = []
        for index in range(50):
            if strategy.exhausted:
                break
            controller = strategy.controller(index)
            outcome = run_schedule(scenario, controller, seed=0, index=index)
            strategy.observe(outcome.trace)
            seen.append(outcome.trace.choices)
        assert seen == [[0], [1]]

    def test_explore_reports_a_tree_exhausted_on_its_last_budgeted_schedule(
        self,
    ):
        """SB under tso is a 240-schedule tree: a budget of exactly 240
        visits all of it, so explore must say exhausted, as the litmus
        enumerator does for the same search."""
        from repro.memmodel.litmus import enumerate_litmus

        result = explore(
            SCENARIOS["litmus-sb-tso"], make_strategy("exhaustive"),
            budget=240, seed=0,
        )
        assert result.ok
        assert result.schedules_run == 240
        assert result.exhausted is True
        litmus = enumerate_litmus("sb", "tso", budget=240)
        assert (litmus.runs, litmus.exhausted) == (240, True)

    def test_seed_sweep_varies_the_kernel_seed(self):
        strategy = make_strategy("seeds")
        assert strategy.kernel_seed(0, 7) == 7
        assert strategy.kernel_seed(3, 7) == 10

    def test_registry_builds_each_strategy_by_its_name(self):
        for name in STRATEGIES:
            assert make_strategy(name, seed=1).name == name
        with pytest.raises(ValueError, match="unknown strategy"):
            make_strategy("dpor")

    def test_random_walk_is_deterministic_per_index(self):
        from repro.explore.trace import DecisionPoint

        point = DecisionPoint("sched.pick", 0, 0, 5, 0, ())
        one = make_strategy("random", seed=3).controller(4)
        two = make_strategy("random", seed=3).controller(4)
        assert one.chooser(point) == two.chooser(point)


class TestEarlyTermination:
    def test_all_waiting_detects_an_undetectable_wedge(self):
        # Two threads in an ABBA embrace, a fault plan whose ticks keep
        # the clock alive forever, and no watchdog sweep yet: the
        # all-waiting check is what ends the schedule.
        from repro.analysis.faults import FaultPlan
        from repro.kernel import Kernel, KernelConfig, msec
        from repro.kernel.primitives import Enter, Exit, Pause

        from repro.sync.monitor import Monitor

        config = KernelConfig(
            seed=0, fault_plan=FaultPlan(kill_thread_prob=0.001,
                                         kill_immune=("a", "b")),
            watchdog=True,
        )
        kernel = Kernel(config)
        m1, m2 = Monitor("x.a"), Monitor("x.b")

        def first():
            yield Enter(m1)
            yield Pause(msec(1))
            yield Enter(m2)
            yield Exit(m2)
            yield Exit(m1)

        def second():
            yield Enter(m2)
            yield Pause(msec(1))
            yield Enter(m1)
            yield Exit(m1)
            yield Exit(m2)

        kernel.fork_root(first, name="a", priority=4)
        kernel.fork_root(second, name="b", priority=4)
        assert not all_waiting(kernel)  # nothing has even run
        kernel.run_until(
            msec(500), raise_on_deadlock=False,
            stop_when=all_waiting,
        )
        # Without the stop the fault ticks would grind to the horizon.
        assert kernel.now < msec(500)
        assert all_waiting(kernel)
        kernel.shutdown()

    def test_untimed_cv_wait_is_live_while_spurious_wakes_are_possible(self):
        from repro.analysis.faults import FaultPlan
        from repro.kernel import KernelConfig, msec

        config = KernelConfig(
            seed=0, fault_plan=FaultPlan(spurious_wakeup_prob=0.0001),
            watchdog=True,
        )
        kernel, shutdown = SCENARIOS["stolen-notify"].build(config)
        kernel.run_until(msec(100), raise_on_deadlock=False)
        waiting = [
            t for t in kernel.threads.values()
            if t.alive and t.state.value == "waiting-cv"
        ]
        if waiting:  # the consumer is parked untimed
            assert not all_waiting(kernel)
        shutdown()


class TestMinimization:
    def test_minimize_rejects_a_trace_that_does_not_replay(self):
        scenario = SCENARIOS["producer-consumer"]
        outcome = run_schedule(
            scenario, ScheduleController(tail=TAIL_DEFAULT), seed=0
        )
        assert outcome.violation is None
        outcome.violation = "fabricated"  # lie about the verdict
        assert minimize(scenario, outcome) is None

    def test_minimize_reports_replay_budget(self):
        result = explore(
            SCENARIOS["abba"], make_strategy("random", seed=0),
            budget=5, seed=0,
        )
        assert 0 < result.minimized.replays <= 50


class TestChaosIntegration:
    def test_failing_chaos_run_saves_a_replayable_trace(self, tmp_path):
        from repro.analysis.chaos import run_one
        from repro.analysis.faults import FaultPlan

        scenario = dataclasses.replace(
            SCENARIOS["abba"], name="abba-directed", expect=None,
            check=lambda kernel: ["synthetic invariant failure"],
        )
        record = run_one(
            scenario, FaultPlan(), 0, trace_dir=str(tmp_path)
        )
        assert not record.ok
        assert record.trace_path is not None
        trace = DecisionTrace.load(record.trace_path)
        assert trace.meta["scenario"] == "abba-directed"
        assert "synthetic invariant failure" in trace.meta["failures"]

    def test_passing_chaos_run_saves_nothing(self, tmp_path):
        from repro.analysis.chaos import run_one
        from repro.analysis.faults import FaultPlan

        scenario = SCENARIOS["producer-consumer"]
        record = run_one(scenario, FaultPlan(), 0, trace_dir=str(tmp_path))
        assert record.ok
        assert record.trace_path is None
        assert list(tmp_path.iterdir()) == []


class TestScenarioRegistry:
    def test_resolve_groups_and_lists(self):
        assert [s.name for s in resolve("directed")] == [
            "wait-if", "abba", "stolen-notify"
        ]
        assert [s.name for s in resolve("clean")] == [
            "cedar-idle", "producer-consumer"
        ]
        # "all" is directed + clean; heavyweight entries (the replicated
        # cluster) and the litmus battery are select-by-name or by tag.
        all_names = {s.name for s in resolve("all")}
        assert all_names == {
            "wait-if", "abba", "stolen-notify",
            "producer-consumer", "cedar-idle",
        }
        assert "cluster-failover-train" not in all_names
        assert [s.name for s in resolve("cluster-failover-train")] == [
            "cluster-failover-train"
        ]
        # Every litmus (test, model) pair is a catalogue entry, for --replay.
        assert len(resolve("litmus")) == 12
        assert "litmus-iriw-pso" in SCENARIOS
        assert [s.name for s in resolve("litmus-mp-pso")] == ["litmus-mp-pso"]
        assert [s.name for s in resolve("abba,wait-if")] == [
            "abba", "wait-if"
        ]
        with pytest.raises(KeyError):
            resolve("no-such-scenario")
