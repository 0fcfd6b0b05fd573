"""Memory-model tests: the config seam, the store-buffer models, the
pinned litmus outcome tables, witness replay, and TSO-aware race
verdicts.

The litmus pins are the heart: under ``sc`` exhaustive search reaches
*exactly* the SC interleaving sets; ``tso`` additionally reaches SB's
``(0, 0)`` (the one relaxation x86-TSO admits); ``pso`` additionally
reaches MP's ``(1, 0)`` (the §5.5 publication hazard, which whole-buffer
FIFO — i.e. real TSO — forbids); LB's and IRIW's relaxed outcomes stay
unreachable under every operational store-buffer model.  See
``docs/MEMORY.md`` for the derivations.
"""

import pytest

from repro.casestudies.weakmem import run_init_once, run_publication
from repro.kernel import KernelConfig
from repro.kernel.memory import MemorySystem, SimVar, create_memory_model
from repro.kernel.rng import DeterministicRng
from repro.kernel.simtime import usec
from repro.memmodel.litmus import (
    LITMUS_TESTS,
    enumerate_litmus,
    litmus_scenario,
)
from repro.memmodel.storebuffer import StoreBufferMemory


class TestConfigSeam:
    def test_default_is_sc(self):
        assert KernelConfig().memory_model == "sc"

    def test_unknown_model_raises(self):
        with pytest.raises(ValueError):
            KernelConfig(memory_model="rmo")

    def test_factory_rejects_names_set_after_validation(self):
        # Builders assign ``memory_model`` after ``__post_init__`` ran, so
        # the factory must not fall back to sc for a name it does not know.
        for name in ("weak", "rmo"):
            config = KernelConfig()
            config.memory_model = name
            with pytest.raises(ValueError):
                create_memory_model(config, DeterministicRng(0))

    def test_factory_dispatch(self):
        rng = DeterministicRng(0)
        sc = create_memory_model(KernelConfig(), rng)
        assert isinstance(sc, MemorySystem) and not sc.buffered
        tso = create_memory_model(KernelConfig(memory_model="tso"), rng)
        pso = create_memory_model(KernelConfig(memory_model="pso"), rng)
        assert isinstance(tso, StoreBufferMemory) and tso.fifo
        assert isinstance(pso, StoreBufferMemory) and not pso.fifo
        assert tso.buffered and pso.buffered


class _FakeThread:
    def __init__(self, tid, name):
        self.tid = tid
        self.name = name


def _buffer_memory(model="tso", delay=usec(50)):
    config = KernelConfig(memory_model=model, store_buffer_delay=delay)
    rng = DeterministicRng(0).fork("memory")
    return StoreBufferMemory(config, rng, fifo=model == "tso")


class TestStoreBufferMemory:
    def test_store_is_buffered_until_drained(self):
        mem = _buffer_memory()
        writer = _FakeThread(1, "w")
        reader = _FakeThread(2, "r")
        var = SimVar("x", 0)
        mem.store(var, 1, 0, writer, None)
        assert var.committed == 0
        # Forwarding: the writer sees its own buffered store...
        assert mem.load_observed(var, 0, writer)[0] == 1
        # ...but another thread still sees the committed value (and the
        # miss counts as a stale load, the §5.5 hazard witness).
        assert mem.load_observed(var, 0, reader)[0] == 0
        assert mem.stale_loads == 1

    def test_fence_drains_the_whole_buffer_in_order(self):
        mem = _buffer_memory()
        writer = _FakeThread(1, "w")
        x, y = SimVar("x", 0), SimVar("y", 0)
        mem.store(x, 1, 0, writer, None)
        mem.store(y, 2, 0, writer, None)
        mem.fence(writer)
        assert (x.committed, y.committed) == (1, 2)
        assert mem.buffered_entries() == 0
        assert mem.fences == 1
        # An empty-buffer fence counts as a request, not a fence.
        mem.fence(writer)
        assert (mem.fences, mem.fence_requests) == (1, 2)

    def test_aging_commits_after_the_delay(self):
        mem = _buffer_memory(delay=usec(10))
        writer = _FakeThread(1, "w")
        var = SimVar("x", 0)
        mem.store(var, 7, 0, writer, None)
        assert var.committed == 0
        mem.load_observed(var, usec(10), _FakeThread(2, "r"))
        assert var.committed == 7

    def test_tso_offers_only_the_buffer_head(self):
        mem = _buffer_memory("tso")
        writer = _FakeThread(1, "w")
        x, y = SimVar("x", 0), SimVar("y", 0)
        mem.store(x, 1, 0, writer, None)
        mem.store(y, 2, 0, writer, None)
        options = mem.drain_options()
        assert [label for _key, label in options] == ["w drains x"]
        # Committing the non-head directly is a model-soundness error.
        with pytest.raises(ValueError):
            mem.drain_option((1, y.uid), 0)
        mem.drain_option(options[0][0], 0)
        assert (x.committed, y.committed) == (1, 0)
        assert mem.drain_decisions == 1

    def test_pso_offers_every_variable_and_can_reorder(self):
        mem = _buffer_memory("pso")
        writer = _FakeThread(1, "w")
        x, y = SimVar("x", 0), SimVar("y", 0)
        mem.store(x, 1, 0, writer, None)
        mem.store(y, 2, 0, writer, None)
        labels = [label for _key, label in mem.drain_options()]
        assert labels == ["w drains x", "w drains y"]
        # Store-store reordering: y commits while x stays buffered.
        mem.drain_option((1, y.uid), 0)
        assert (x.committed, y.committed) == (0, 2)

    def test_bad_drain_keys_raise(self):
        mem = _buffer_memory()
        with pytest.raises(ValueError):
            mem.drain_option((9, 9), 0)


class TestLitmusPins:
    """The pinned reachable-outcome tables (exhaustive where the tree
    allows, seeded sampling for IRIW's large trees — soundness is
    checked on every run either way)."""

    def test_sb_sc_is_exactly_the_sc_set(self):
        result = enumerate_litmus("sb", "sc", budget=3000)
        assert result.exhausted
        assert result.reached == {(0, 1), (1, 0), (1, 1)}
        assert not result.forbidden and not result.harness_failures

    def test_sb_tso_adds_the_store_buffering_outcome(self):
        result = enumerate_litmus("sb", "tso", budget=3000)
        assert result.exhausted
        assert result.reached == {(0, 0), (0, 1), (1, 0), (1, 1)}
        assert (0, 0) in result.witnesses

    def test_mp_tso_matches_sc_but_pso_reorders_stores(self):
        tso = enumerate_litmus("mp", "tso", budget=3000)
        assert tso.exhausted
        # Whole-buffer FIFO forbids the publication hazard: real x86-TSO
        # rescues the §5.5 idiom.
        assert tso.reached == {(0, 0), (0, 1), (1, 1)}
        pso = enumerate_litmus("mp", "pso", budget=3000)
        assert pso.exhausted
        assert pso.reached == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_lb_relaxed_outcome_is_unreachable_everywhere(self):
        for model in ("sc", "tso", "pso"):
            result = enumerate_litmus("lb", model, budget=3000)
            assert result.exhausted, model
            assert result.reached == {(0, 0), (0, 1), (1, 0)}, model

    @pytest.mark.parametrize("model", ["sc", "tso", "pso"])
    def test_iriw_never_disagrees_on_write_order(self, model):
        result = enumerate_litmus("iriw", model, strategy="random",
                                  budget=1500)
        expected = LITMUS_TESTS["iriw"].expected[model]
        assert (1, 0, 1, 0) not in result.reached
        assert not result.forbidden and not result.harness_failures
        # The seeded walk covers all 15 reachable outcomes.
        assert result.reached == expected

    def test_every_run_is_checked_for_soundness(self):
        result = enumerate_litmus("sb", "sc", budget=500)
        assert result.runs > 0
        assert not result.forbidden


class TestWitnessReplay:
    def test_sb_tso_witness_replays_byte_identical(self, tmp_path):
        from repro.explore import DecisionTrace, replay

        result = enumerate_litmus("sb", "tso", budget=3000)
        witness = result.witnesses[(0, 0)]
        witness.trace.meta.update(
            scenario="litmus-sb-tso", test="sb", model="tso",
            outcome=[0, 0], seed=witness.seed,
            trace_hash=witness.fingerprint["trace"],
        )
        path = str(tmp_path / "witness.trace.json")
        witness.trace.save(path)
        loaded = DecisionTrace.load(path)
        scenario, state = litmus_scenario("sb", "tso")
        replayed = replay(scenario, loaded.choices,
                          seed=int(loaded.meta["seed"]))
        assert replayed.fingerprint["trace"] == loaded.meta["trace_hash"]
        assert tuple(state["outcome"]) == (0, 0)
        # The relaxed outcome needs held buffers, so the trace must
        # contain real mem.drain decisions.
        assert any(d.site == "mem.drain" for d in replayed.trace.decisions)

    def test_drain_decisions_name_the_owning_thread(self):
        result = enumerate_litmus("sb", "tso", budget=3000)
        witness = result.witnesses[(1, 1)]
        drains = [d for d in witness.trace.decisions if d.site == "mem.drain"]
        assert drains
        taken = [d for d in drains if d.choice > 0]
        assert taken, "the (1,1) witness must commit buffered stores"
        for decision in taken:
            assert decision.labels[0] == "hold buffers"
            text = decision.describe()
            assert " drains sb." in text
            assert "sb.t0" in text or "sb.t1" in text

    def test_pct_strategy_answers_drain_sites(self):
        from repro.explore.driver import run_schedule
        from repro.explore.strategies import make_strategy

        scenario, _state = litmus_scenario("sb", "tso")
        strategy = make_strategy("pct", seed=3)
        drained = False
        for index in range(40):
            controller = strategy.controller(index)
            outcome = run_schedule(scenario, controller, seed=0, index=index)
            strategy.observe(outcome.trace)
            if any(d.site == "mem.drain" and d.choice > 0
                   for d in outcome.trace.decisions):
                drained = True
                break
        assert drained, "PCT must treat mem.drain as a schedulable site"


class TestWeakmemOnTheSeam:
    """§5.5 case-study regression pins across the model seam: the
    hazards occur under pso, are *absent* under tso (FIFO commits the
    fields before the pointer and ``data`` before ``done``), and absent
    under sc; monitors and fences repair pso."""

    def test_publication_hazard_per_model(self):
        assert run_publication(model="pso", rounds=30).torn_reads > 0
        assert run_publication(model="tso", rounds=30).torn_reads == 0
        assert run_publication(model="sc", rounds=30).torn_reads == 0

    def test_monitor_repairs_pso_publication(self):
        result = run_publication(model="pso", monitored=True, rounds=20)
        assert result.torn_reads == 0

    def test_init_once_hazard_per_model(self):
        pso = [run_init_once(model="pso", seed=s).saw_uninitialised
               for s in range(20)]
        assert any(pso)
        for model in ("sc", "tso"):
            assert not any(
                run_init_once(model=model, seed=s).saw_uninitialised
                for s in range(20)
            )

    def test_fence_repairs_pso_init_once(self):
        assert not any(
            run_init_once(model="pso", fenced=True, seed=s).saw_uninitialised
            for s in range(20)
        )

    def test_reader_follows_every_published_record(self):
        # Records are remembered by uid: a freed record's id() is reused
        # by the next one, which an id()-keyed reader would skip.
        for model in ("sc", "pso"):
            result = run_publication(model=model, rounds=20)
            assert result.reads == 20, model


class TestRaceVerdicts:
    """TSO-aware race reports: a racy pair the SC reads-from order still
    serializes is tagged 'racy only under TSO/weak ordering'; a pair
    with no ordering at all (the read raced ahead of the write it
    conflicts with) stays 'racy even under SC'."""

    def test_init_once_split_verdict(self):
        result = run_init_once(model="pso", race_detection=True)
        verdicts = {r.var_name: (r.hb_race, r.sc_race)
                    for r in result.race_reports}
        # The spin flag is read before the write lands: SC-racy.
        assert verdicts["init-done"] == (True, True)
        # The data read observed the published write: its danger is
        # ordering, which only weak models break.
        assert verdicts["init-data"] == (True, False)

    def test_describe_carries_the_verdict(self):
        result = run_init_once(model="pso", race_detection=True)
        by_name = {r.var_name: r.describe() for r in result.race_reports}
        assert "racy even under SC" in by_name["init-done"]
        assert "racy only under TSO/weak ordering" in by_name["init-data"]

    def test_publication_pointer_is_sc_racy_fields_are_not(self):
        result = run_publication(model="pso", rounds=6, race_detection=True)
        verdicts = {r.var_name: r.sc_race for r in result.race_reports}
        assert verdicts["global-record"] is True
        field_verdicts = [sc for name, sc in verdicts.items()
                          if name.startswith("record-")]
        assert field_verdicts and not any(field_verdicts)
