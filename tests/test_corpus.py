"""The static-census corpus and classifier (Table 4 machinery)."""

import pytest

from repro.analysis.classifier import RULES, accuracy, census, classify
from repro.corpus import CorpusGenerator, cedar_corpus, gvx_corpus
from repro.corpus import model
from repro.corpus.model import PAPER_TABLE4, PAPER_TOTALS, PARADIGMS, CodeFragment


class TestCorpusGeneration:
    def test_cedar_corpus_matches_paper_total(self):
        assert len(cedar_corpus()) == PAPER_TOTALS["Cedar"] == 348

    def test_gvx_corpus_matches_paper_total(self):
        assert len(gvx_corpus()) == PAPER_TOTALS["GVX"] == 234

    def test_ground_truth_distribution(self):
        corpus = cedar_corpus()
        for paradigm, expected in PAPER_TABLE4["Cedar"].items():
            actual = sum(1 for f in corpus if f.label == paradigm)
            assert actual == expected, paradigm

    def test_generation_is_deterministic(self):
        first = [f.text for f in cedar_corpus(seed=5)]
        second = [f.text for f in cedar_corpus(seed=5)]
        assert first == second

    def test_different_seeds_vary_text(self):
        first = [f.text for f in cedar_corpus(seed=1)]
        second = [f.text for f in cedar_corpus(seed=2)]
        assert first != second

    def test_fragments_have_unique_ids(self):
        corpus = cedar_corpus()
        ids = [f.fragment_id for f in corpus]
        assert len(set(ids)) == len(ids)

    def test_generator_covers_every_paradigm(self):
        generator = CorpusGenerator("Test", seed=0)
        fragments = generator.generate({p: 2 for p in PARADIGMS})
        assert len(fragments) == 2 * len(PARADIGMS)
        assert {f.label for f in fragments} == set(PARADIGMS)


class TestClassifier:
    def test_high_accuracy_on_cedar(self):
        assert accuracy(cedar_corpus()) >= 0.95

    def test_high_accuracy_on_gvx(self):
        assert accuracy(gvx_corpus()) >= 0.95

    def test_accuracy_robust_to_seed(self):
        for seed in range(4):
            assert accuracy(cedar_corpus(seed=seed)) >= 0.95

    def test_census_totals(self):
        result = census(cedar_corpus(), "Cedar")
        assert result.total == 348
        assert result.fraction(model.DEFER) == pytest.approx(108 / 348, abs=0.03)

    def test_unrecognisable_fragment_is_unknown(self):
        fragment = CodeFragment(
            fragment_id=1, system="Test", module="M", procedure="P",
            text="x ← FORK Mystery[];", label=model.UNKNOWN,
        )
        assert classify(fragment) == model.UNKNOWN

    def test_rule_order_specific_before_general(self):
        # A slack process contains pump-ish cues; slack must win.
        slack_like = CodeFragment(
            fragment_id=1, system="T", module="M", procedure="P",
            text=(
                "WHILE TRUE DO\n"
                "  first ← Dequeue[q];\n"
                "  Process.YieldButNotToMe[];\n"
                "  batch ← MergeOverlapping[first, DrainQueue[q]];\n"
                "ENDLOOP;"
            ),
            label=model.SLACK,
        )
        assert classify(slack_like) == model.SLACK

    def test_encapsulated_beats_oneshot(self):
        # DelayedFork IS a one-shot, but the census counts package uses
        # in their own row.
        fragment = CodeFragment(
            fragment_id=1, system="T", module="M", procedure="P",
            text="init: DelayedFork.Create[RepaintDoc, 30];",
            label=model.ENCAPSULATED,
        )
        assert classify(fragment) == model.ENCAPSULATED

    def test_rules_cover_all_nonunknown_paradigms(self):
        covered = {rule.paradigm for rule in RULES}
        expected = set(PARADIGMS) - {model.UNKNOWN}
        assert covered == expected


class TestCensusModel:
    def test_paper_table4_shares(self):
        # The headline shares: defer work is 31% of Cedar, 33% of GVX.
        cedar_total = PAPER_TOTALS["Cedar"]
        assert round(100 * PAPER_TABLE4["Cedar"][model.DEFER] / cedar_total) == 31
        gvx_total = PAPER_TOTALS["GVX"]
        assert round(100 * PAPER_TABLE4["GVX"][model.DEFER] / gvx_total) == 33
