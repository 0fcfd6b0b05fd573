"""Analysis layer: intervals, genealogy, priorities, report helpers."""

import pytest

from repro.analysis.genealogy import analyse as analyse_genealogy
from repro.analysis.intervals import (
    bucketise,
    has_bimodal_shape,
    summarise,
)
from repro.analysis.priorities import analyse as analyse_priorities
from repro.analysis.report import format_table, ratio
from repro.analysis import dynamic
from repro.kernel.simtime import msec
from repro.kernel.stats import ThreadRecord


def record(tid, generation, priority=4, name="t"):
    return ThreadRecord(
        tid=tid, name=f"{name}#{tid}", parent_tid=None if generation == 0 else tid - 1,
        generation=generation, priority=priority, created_at=0, role=None,
    )


class TestIntervalAnalysis:
    def test_summarise_short_fraction(self):
        intervals = [msec(1)] * 8 + [msec(48)] * 2
        summary = summarise(intervals)
        assert summary.short_fraction == pytest.approx(0.8)

    def test_summarise_quantum_share(self):
        intervals = [msec(1)] * 10 + [msec(48)] * 2
        summary = summarise(intervals)
        expected = (2 * msec(48)) / (10 * msec(1) + 2 * msec(48))
        assert summary.quantum_time_share == pytest.approx(expected)

    def test_summarise_empty(self):
        summary = summarise([])
        assert summary.count == 0
        assert summary.short_fraction == 0.0
        assert summary.quantum_time_share == 0.0

    def test_bucketise_boundaries(self):
        edges = [msec(5), msec(50)]
        buckets = bucketise([msec(5), msec(6), msec(50), msec(51)], edges)
        labels = dict(buckets)
        assert labels["0-5ms"] == 1
        assert labels["5-50ms"] == 2
        assert labels[">50ms"] == 1

    def test_bimodal_detection(self):
        bimodal = [msec(1)] * 50 + [msec(47)] * 5
        unimodal = [msec(1)] * 50
        middling = [msec(1)] * 50 + [msec(30)] * 10 + [msec(47)] * 2
        assert has_bimodal_shape(bimodal)
        assert not has_bimodal_shape(unimodal)
        assert not has_bimodal_shape(middling)
        assert not has_bimodal_shape([])


class TestGenealogy:
    def test_generation_counts(self):
        log = [record(1, 0), record(2, 1), record(3, 1), record(4, 2)]
        report = analyse_genealogy(log)
        assert report.by_generation == {0: 1, 1: 2, 2: 1}
        assert report.max_generation == 2
        assert report.transient_count == 3

    def test_grandchild_kinds_deduplicated(self):
        log = [record(1, 2, name="child"), record(2, 2, name="child")]
        report = analyse_genealogy(log)
        assert report.grandchild_kinds == ["child"]

    def test_empty_log(self):
        report = analyse_genealogy([])
        assert report.max_generation == 0
        assert report.transient_count == 0


class TestPriorities:
    def test_unused_level_detection(self):
        cpu = {p: (100 if p != 5 else 0) for p in range(1, 8)}
        log = [record(i, 0, priority=p) for i, p in enumerate([1, 2, 3, 4, 6, 7])]
        report = analyse_priorities(cpu, log)
        assert report.unused_levels == [5]

    def test_busiest_level(self):
        cpu = {p: 0 for p in range(1, 8)}
        cpu[3] = 1000
        report = analyse_priorities(cpu, [record(1, 0, priority=3)])
        assert report.busiest_level == 3

    def test_thread_counts_by_priority(self):
        log = [record(i, 0, priority=3) for i in range(5)]
        report = analyse_priorities({p: 1 for p in range(1, 8)}, log)
        assert report.threads_by_priority[3] == 5


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table("T", ["a", "bb"], [[1, 2.5], ["xx", 0.001]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "bb" in lines[1]
        assert len(lines) == 5

    def test_ratio(self):
        assert ratio(2.0, 1.0) == "2.00x"
        assert ratio(0.0, 0.0) == "-"
        assert ratio(1.0, 0.0) == "inf"


class TestDynamicRegistry:
    def test_paper_rows_complete(self):
        assert len(dynamic.PAPER_ROWS) == 12
        for system, count in (("Cedar", 8), ("GVX", 4)):
            rows = [r for (s, _a), r in dynamic.PAPER_ROWS.items() if s == system]
            assert len(rows) == count

    def test_paper_row_values_transcribed(self):
        idle = dynamic.paper_row("Cedar", "idle")
        assert idle.switches_per_sec == 132
        assert idle.distinct_mls == 554
        gvx_kb = dynamic.paper_row("GVX", "keyboard")
        assert gvx_kb.forks_per_sec == 0.0
        assert gvx_kb.ml_enters_per_sec == 1436

    def test_measure_rejects_unknown_names(self):
        with pytest.raises(ValueError):
            dynamic.measure("VMS", "idle")
        with pytest.raises(ValueError):
            dynamic.measure("GVX", "compile")
