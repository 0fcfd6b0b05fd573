"""The command-line interface."""

import pytest

from repro.cli import main


class TestCli:
    def test_requires_a_command(self, capsys):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_ybntm_command(self, capsys):
        assert main(["ybntm"]) == 0
        out = capsys.readouterr().out
        assert "YieldButNotToMe" in out
        assert "three-fold" in out

    def test_inversion_command(self, capsys):
        assert main(["inversion"]) == 0
        out = capsys.readouterr().out
        assert "starved" in out
        assert "daemon" in out

    def test_census_command(self, capsys):
        assert main(["census"]) == 0
        out = capsys.readouterr().out
        assert "Table 4 (Cedar)" in out
        assert "defer-work" in out

    def test_tables_single_system(self, capsys):
        assert main(["tables", "GVX"]) == 0
        out = capsys.readouterr().out
        assert "GVX" in out
        assert "Cedar" not in out

    def test_spurious_command(self, capsys):
        assert main(["spurious"]) == 0
        out = capsys.readouterr().out
        assert "immediate" in out and "deferred" in out

    def test_fairshare_command(self, capsys):
        assert main(["fairshare"]) == 0
        out = capsys.readouterr().out
        assert "strict" in out and "fair_share" in out

    def test_seed_flag_changes_nothing_structural(self, capsys):
        assert main(["--seed", "3", "spurious"]) == 0
        out = capsys.readouterr().out
        assert "spurious" in out

    def test_chaos_help_documents_the_sweep(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for option in ("--runs", "--skip-golden", "--output"):
            assert option in out

    def test_chaos_smoke_runs_and_writes_a_report(self, capsys, tmp_path):
        output = tmp_path / "chaos.json"
        assert main(
            ["chaos", "--runs", "4", "--skip-golden", "--output", str(output)]
        ) == 0
        out = capsys.readouterr().out
        assert "partial deadlocks" in out
        assert "invariant failures" in out
        import json

        report = json.loads(output.read_text())
        assert report["ok"] is True
        assert report["summary"]["deadlocks_detected"] >= 2

    def test_no_raise_on_deadlock_prints_a_table(self, capsys, monkeypatch):
        from repro import cli
        from repro.kernel.errors import Deadlock

        rows = [
            ("ab", "blocked-monitor", "monitor B", "ba"),
            ("ba", "blocked-monitor", "monitor A", "ab"),
        ]

        def wedge(_args):
            raise Deadlock("wedged", rows=rows)

        monkeypatch.setitem(cli._COMMANDS, "wedge", (wedge, "test stub"))
        assert main(["--no-raise-on-deadlock", "wedge"]) == 1
        err = capsys.readouterr().err
        assert "deadlock detected:" in err
        assert "waits on" in err and "held by" in err  # table header
        assert "monitor B" in err and "ba" in err

    def test_deadlock_raises_without_the_flag(self, monkeypatch):
        from repro import cli
        from repro.kernel.errors import Deadlock

        def wedge(_args):
            raise Deadlock("wedged", rows=[])

        monkeypatch.setitem(cli._COMMANDS, "wedge", (wedge, "test stub"))
        with pytest.raises(Deadlock):
            main(["wedge"])

    def test_serve_command_prints_slo_report(self, capsys):
        assert main(["serve", "--duration-ms", "500"]) == 0
        out = capsys.readouterr().out
        assert "scenario=steady" in out
        assert "Per-tenant outcomes" in out
        assert "End-to-end latency" in out
        assert "stats digest:" in out

    def test_serve_command_is_deterministic(self, capsys):
        import re

        assert main(["--seed", "5", "serve", "--duration-ms", "500",
                     "--scenario", "overload"]) == 0
        first = capsys.readouterr().out
        assert main(["--seed", "5", "serve", "--duration-ms", "500",
                     "--scenario", "overload"]) == 0
        second = capsys.readouterr().out
        digest = re.compile(r"stats digest: ([0-9a-f]{64})")
        assert digest.search(first).group(1) == digest.search(second).group(1)

    def test_serve_command_writes_json(self, capsys, tmp_path):
        import json

        output = tmp_path / "server.json"
        assert main(["serve", "--duration-ms", "500", "--workers", "2",
                     "--policy", "fair_share", "--output", str(output)]) == 0
        loaded = json.loads(output.read_text())
        assert loaded["policy"] == "fair_share"
        assert loaded["workers"] == 2
        assert loaded["stats"]["latency"]["p99"] >= 0

    def test_cluster_command_prints_slo_rollup(self, capsys):
        assert main(["cluster", "--duration-ms", "400"]) == 0
        out = capsys.readouterr().out
        assert "cluster scenario=steady" in out
        assert "Per-shard outcomes" in out
        assert "Per-tenant outcomes" in out
        assert "cluster digest:" in out

    def test_cluster_command_writes_json(self, capsys, tmp_path):
        import json

        output = tmp_path / "cluster.json"
        assert main(["cluster", "--duration-ms", "400", "--shards", "2",
                     "--policy", "rr", "--admission", "drop_tail",
                     "--output", str(output)]) == 0
        loaded = json.loads(output.read_text())
        assert loaded["policy"] == "rr"
        assert loaded["admission"] == "drop_tail"
        assert loaded["shards"] == 2
        assert loaded["merged"]["latency"]["p99"] >= 0

    def test_workload_command_prints_attainment_report(self, capsys):
        assert main(["workload", "--duration-ms", "400"]) == 0
        out = capsys.readouterr().out
        assert "workload scenario=diurnal" in out
        assert "clients=350,000" in out
        assert "Per-tenant SLO attainment" in out
        assert "workload digest:" in out

    def test_workload_command_writes_json(self, capsys, tmp_path):
        import json

        output = tmp_path / "workload.json"
        assert main(["workload", "--scenario", "cache-steady",
                     "--duration-ms", "400", "--no-single-flight",
                     "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "single-flight=off" in out
        loaded = json.loads(output.read_text())
        assert loaded["scenario"] == "cache-steady"
        assert loaded["single_flight"] is False
        assert loaded["cache"]["fetches"] >= 0
        assert set(loaded["tenants"]) == {"reads", "api"}

    def test_cluster_adapt_weights_runs_the_loop(self, capsys, tmp_path):
        import json

        output = tmp_path / "adapt.json"
        assert main(["cluster", "--scenario", "skewed", "--adapt-weights",
                     "2", "--duration-ms", "300",
                     "--output", str(output)]) == 0
        out = capsys.readouterr().out
        assert "round 0: weights" in out
        assert "attainment" in out
        loaded = json.loads(output.read_text())
        assert loaded["rounds_run"] >= 1
        assert loaded["history"][0]["weights"]["bulk"] == 1

    def test_trace_command_writes_chrome_json(self, capsys, tmp_path):
        output = tmp_path / "trace.json"
        assert main(["trace", str(output)]) == 0
        out = capsys.readouterr().out
        assert "event history" in out
        assert output.exists()
        import json

        loaded = json.loads(output.read_text())
        assert loaded["traceEvents"]


class TestExploreCli:
    def test_explore_help_documents_the_options(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        for option in ("--scenario", "--strategy", "--budget", "--replay",
                       "--output"):
            assert option in out

    def test_explore_finds_minimizes_and_writes_the_report(
        self, capsys, tmp_path
    ):
        import json

        output = tmp_path / "explore.json"
        assert main([
            "--seed", "0", "explore", "--scenario", "stolen-notify",
            "--strategy", "exhaustive", "--budget", "10",
            "--output", str(output),
        ]) == 0
        out = capsys.readouterr().out
        assert "found" in out and "minimize" in out
        report = json.loads(output.read_text())
        assert report["ok"] is True
        (entry,) = report["scenarios"]
        assert entry["minimized"]["choices"] == [1]
        assert entry["minimized"]["deterministic"] is True
        assert "trace_path" in entry

    def test_explore_replay_verifies_the_saved_trace(self, capsys, tmp_path):
        output = tmp_path / "explore.json"
        assert main([
            "explore", "--scenario", "stolen-notify",
            "--strategy", "exhaustive", "--budget", "10",
            "--output", str(output),
        ]) == 0
        capsys.readouterr()
        trace_path = tmp_path / "explore-stolen-notify.trace.json"
        assert trace_path.exists()
        assert main(["explore", "--replay", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "fault.drop_notify" in out
        assert "violation: lost wakeup" in out
        assert "replay ok (" in out and "decisions verified)" in out

    def test_explore_replay_of_a_diverged_trace_exits_nonzero(
        self, capsys, tmp_path
    ):
        import json

        output = tmp_path / "explore.json"
        assert main([
            "explore", "--scenario", "stolen-notify",
            "--strategy", "exhaustive", "--budget", "10",
            "--output", str(output),
        ]) == 0
        capsys.readouterr()
        trace_path = tmp_path / "explore-stolen-notify.trace.json"
        data = json.loads(trace_path.read_text())
        data["decisions"][0]["site"] = "sched.pick"  # not what replays
        trace_path.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--replay", str(trace_path)])
        assert excinfo.value.code == 1
        assert "REPLAY DIVERGED" in capsys.readouterr().out

    def test_explore_exits_nonzero_when_the_bug_is_not_found(self, capsys):
        # Budget 0 runs no schedules, so a directed scenario cannot meet
        # its expectation: exit code must be non-zero for CI.
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--scenario", "abba", "--budget", "0"])
        assert excinfo.value.code == 1
        assert "FAILED" in capsys.readouterr().out

    def test_explore_rejects_an_unknown_scenario(self):
        with pytest.raises(KeyError):
            main(["explore", "--scenario", "no-such-scenario"])

    @pytest.mark.parametrize("argv", [
        ["explore", "--scenario", ","],
        ["chaos", "--runs", "0", "--skip-golden", "--scenario", ","],
        ["litmus", "--test", ","],
    ])
    def test_empty_selection_is_rejected(self, capsys, argv):
        """A selector naming nothing is an error that lists the known
        names, never a vacuous success or a silent default."""
        with pytest.raises((KeyError, SystemExit)) as excinfo:
            main(argv)
        if isinstance(excinfo.value, SystemExit):
            assert excinfo.value.code != 0
        message = str(excinfo.value) + capsys.readouterr().err
        assert "empty" in message
        assert ("stolen-notify" in message) or ("'sb'" in message)

    def test_edited_clean_trace_fails_replay(self, capsys, tmp_path):
        """Replay compares decision lists: a saved clean-run trace with
        one choice edited no longer matches what the scenario does."""
        import json

        assert main(["--seed", "0", "litmus", "--test", "sb", "--model",
                     "tso", "--trace-dir", str(tmp_path)]) == 0
        witness = tmp_path / "litmus-sb-tso-00.trace.json"
        assert main(["explore", "--replay", str(witness)]) == 0
        assert "replay ok" in capsys.readouterr().out
        data = json.loads(witness.read_text())
        # Commit the first store the witness kept buffered.
        drain = next(d for d in data["decisions"] if d["site"] == "mem.drain")
        assert drain["choice"] == 0
        drain["choice"] = 1
        witness.write_text(json.dumps(data))
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--replay", str(witness)])
        assert excinfo.value.code == 1
        out = capsys.readouterr().out
        assert "REPLAY DIVERGED" in out
        assert "replay ok" not in out

    def test_every_catalogue_name_resolves_for_every_tool(self):
        """One catalogue: explore's and chaos's selectors (both
        ``resolve``) reach every name, including the two worlds below
        that used to belong to one tool each."""
        from repro.analysis.scenarios import SCENARIOS, resolve

        for name, scenario in SCENARIOS.items():
            assert resolve(name) == [scenario]

    def test_explore_reaches_the_cache_stampede(self, capsys):
        assert main(["explore", "--scenario", "cache-stampede",
                     "--budget", "1"]) == 0
        assert "1 schedules clean" in capsys.readouterr().out

    def test_chaos_reaches_the_failover_train(self, capsys):
        assert main(["chaos", "--runs", "0", "--skip-golden",
                     "--scenario", "cluster-failover-train"]) == 0
        assert "cluster-failover-train: deadlocks=0 ok" in (
            capsys.readouterr().out
        )

    def test_chaos_exits_nonzero_on_invariant_violations(
        self, capsys, monkeypatch
    ):
        import repro.analysis.chaos as chaos

        def failing_sweep(**kwargs):
            return {
                "ok": False,
                "seed": 0,
                "runs": [],
                "summary": {
                    "total": 1, "failed": 1, "faults_injected": 0,
                    "deadlocks_detected": 0,
                },
            }

        monkeypatch.setattr(chaos, "run_sweep", failing_sweep)
        with pytest.raises(SystemExit) as excinfo:
            main(["chaos", "--runs", "4", "--skip-golden"])
        assert excinfo.value.code == 1

    def test_default_runs_visit_every_sweep_entry(self, monkeypatch):
        # The sampled runs walk the sweep entries round-robin, so a
        # default below the entry count would leave some unrun by
        # ``make chaos``.  The stub sweep runs no simulation.
        import repro.analysis.chaos as chaos
        from repro.analysis.scenarios import resolve

        seen = {}

        def recording_sweep(**kwargs):
            seen.update(kwargs)
            return {
                "ok": True,
                "summary": {
                    "total": 0, "failed": 0, "faults_injected": 0,
                    "deadlocks_detected": 0,
                },
            }

        monkeypatch.setattr(chaos, "run_sweep", recording_sweep)
        assert main(["chaos", "--skip-golden"]) == 0
        assert seen["runs"] >= len(resolve("sweep"))

    def test_chaos_report_carries_trace_paths_for_failing_runs(
        self, capsys, tmp_path, monkeypatch
    ):
        import json

        import dataclasses

        from repro.analysis.scenarios import SCENARIOS

        # Sabotage one directed entry so its run fails and must save its
        # decision trace next to the report.
        wedge = SCENARIOS["wait-if-deadlock"]
        monkeypatch.setitem(SCENARIOS, wedge.name, dataclasses.replace(
            wedge, expect=None,
            check=lambda kernel: ["forced failure for the test"],
        ))
        output = tmp_path / "chaos.json"
        with pytest.raises(SystemExit):
            main(["chaos", "--runs", "0", "--skip-golden",
                  "--scenario", wedge.name, "--output", str(output)])
        report = json.loads(output.read_text())
        (failing,) = [r for r in report["runs"] if r["failures"]]
        assert failing["trace_path"]
        from repro.explore import DecisionTrace

        trace = DecisionTrace.load(failing["trace_path"])
        assert trace.meta["failures"] == ["forced failure for the test"]
        capsys.readouterr()

        # The trace replays through the catalogue, reproducing the
        # failure decision for decision ...
        assert main(["explore", "--replay", failing["trace_path"]]) == 0
        out = capsys.readouterr().out
        assert "violation: forced failure for the test" in out
        assert "replay ok" in out
        # ... and, with the sabotage gone, the failure does not reproduce.
        monkeypatch.undo()
        with pytest.raises(SystemExit) as excinfo:
            main(["explore", "--replay", failing["trace_path"]])
        assert excinfo.value.code == 1
        assert "REPLAY DID NOT REPRODUCE" in capsys.readouterr().out
