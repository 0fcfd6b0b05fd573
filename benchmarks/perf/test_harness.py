"""Checks of the benchmark harness itself.

Not part of the tier-1 suite (``testpaths`` is ``tests/``); run it
explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf/test_harness.py -q

The workload checks run each workload through ``run.py`` for a single
measured pass in each mode, so this takes about a minute.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from compare import verdict
from profiler import LAYERS, Spans, layer_of
from repro.analysis import dynamic
from repro.kernel.simtime import sec
from repro.workload.world import run_workload
from suite import CLUSTER_DURATION, cluster_pass, measure_activity

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks/perf/run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_layer_map_covers_every_module():
    repro = ROOT / "src" / "repro"
    files = sorted(repro.rglob("*.py"))
    assert files
    for path in files:
        layer = layer_of(path.relative_to(repro).as_posix())
        assert layer in LAYERS, f"{path} has no layer"


def test_activity_pass_reproduces_dynamic_measure():
    spans = Spans()
    counters: Counter = Counter()
    problems: list = []
    mine = measure_activity(
        "Cedar", "keyboard", seed=0, spans=spans, counters=counters,
        problems=problems, window=sec(1),
    )
    theirs = dynamic.measure("Cedar", "keyboard", window=sec(1), seed=0)
    fields = [f.name for f in dataclasses.fields(mine) if f.name != "extras"]
    for name in fields:
        assert getattr(mine, name) == getattr(theirs, name), name
    assert problems == []
    assert counters["kernel.dispatches"] > 0
    assert set(spans.self_s) == {"build", "run", "fold", "check"}


def test_cluster_pass_reproduces_run_workload():
    mine = cluster_pass("diurnal", 0, Spans())
    theirs = run_workload(
        seed=0, scenario="diurnal", duration=CLUSTER_DURATION["diurnal"]
    )
    assert mine.digest == theirs.digest
    assert mine.problems == []
    assert mine.counters["cache.hits"] == 0


def test_span_self_time_excludes_children():
    spans = Spans()
    with spans.span("outer"):
        with spans.span("inner"):
            sum(range(10_000))
    (outer,) = [e for e in spans.events if e[0] == "outer"]
    total = outer[2] / 1e9
    assert spans.self_s["outer"] + spans.self_s["inner"] == pytest.approx(
        total, rel=1e-9
    )
    assert spans.chrome_events()[0]["ph"] == "X"


def test_compare_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert verdict(parent, faster, "lower", 0.1)[0] == "improved"
    assert verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert verdict(parent, parent, "lower", 0.1)[0] == "within bound"
    noisy = [1.0, 1.5, 0.7, 1.3, 0.8, 1.2, 0.9, 1.4, 0.6, 1.1]
    assert verdict(noisy, noisy, "lower", 0.1)[0] == "unresolved"


def parse(stdout: str, workload: str):
    lines = stdout.splitlines()
    printed = {}
    for line in lines[:-1]:
        fields = line.split()
        if len(fields) == 4 and fields[0] == workload:
            printed[fields[1]] = (fields[2], fields[3])
    return printed, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_workload_prints_every_metric(workload):
    digests = []
    for trace, listed in ((0, "end_to_end"), (1, "per_layer")):
        done = run_benchmark(
            "--workload", workload, "--seed", "0", "--seconds", "0",
            "--trace", str(trace),
        )
        assert done.returncode == 0, done.stdout + done.stderr
        printed, result = parse(done.stdout, workload)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True
        assert result["attempted"] >= 1
        expected = {m["name"]: m["unit"] for m in SPEC[listed]}
        assert set(result["metrics"]) == set(expected)
        for name, unit in expected.items():
            assert printed[name][1] == unit
            assert result["metrics"][name]["unit"] == unit
        digests.append(printed["digest"][0])
        if trace:
            shares = [
                result["metrics"][f"{layer}.self_share"]["value"]
                for layer in LAYERS
            ]
            assert sum(shares) == pytest.approx(1.0)
        else:
            for name in expected:
                assert result["metrics"][name]["value"] > 0, name
    assert digests[0] == digests[1], "traced digest differs from untraced"


def test_fails_without_the_simulator(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "benchmarks/perf",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = run_benchmark(
        "--workload", "litmus", "--seed", "0", "--seconds", "1",
        "--trace", "0", cwd=tmp_path,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
