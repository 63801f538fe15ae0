"""The ``repro`` CLI: sweep / alone / report / clean end to end."""

import json
import re

import pytest

from repro.orchestration.cli import _config_from, build_parser, main
from repro.sim.config import FIGURE_REFS_PER_CORE

#: small enough that the whole CLI suite stays in test-suite budget
FAST = ["--refs-per-core", "3000", "--jobs", "2"]


@pytest.fixture
def store_arguments(tmp_path):
    return ["--store", str(tmp_path / "store")]


class TestSweep:
    def test_sweep_prints_normalised_table(self, store_arguments, capsys):
        code = main(["sweep", "--cores", "2", "--groups", "1", *FAST, *store_arguments])
        assert code == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out
        assert "G2-1" in out
        assert "computed" in out

    def test_second_sweep_is_all_cache_hits(self, store_arguments, capsys):
        main(["sweep", "--cores", "2", "--groups", "1", *FAST, *store_arguments])
        capsys.readouterr()
        code = main(["sweep", "--cores", "2", "--groups", "1", *FAST, *store_arguments])
        assert code == 0
        assert "0 tasks computed" in capsys.readouterr().out

    def test_group_names_and_policy_subset(self, store_arguments, capsys):
        code = main([
            "sweep", "--groups", "G2-4,G2-8", "--policies", "fair_share,cooperative",
            "--metric", "all", *FAST, *store_arguments,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "G2-8" in out and "dynamic energy" in out and "static" in out

    def test_unknown_group_rejected(self, store_arguments):
        with pytest.raises(SystemExit):
            main(["sweep", "--groups", "G9-9", *FAST, *store_arguments])

    def test_nonpositive_group_count_rejected(self, store_arguments):
        with pytest.raises(SystemExit):
            main(["sweep", "--groups", "0", *FAST, *store_arguments])

    def test_nonpositive_refs_rejected(self, store_arguments):
        with pytest.raises(SystemExit):
            main(["sweep", "--refs-per-core", "-5", "--groups", "1", *store_arguments])

    @pytest.mark.parametrize("threshold", ["1.5", "-0.1"])
    def test_threshold_outside_unit_range_fails_before_any_work(
        self, tmp_path, threshold
    ):
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match=r"bad --threshold: .*\[0, 1\]"):
            main(["sweep", "--threshold", threshold, *FAST, "--store", str(store)])
        assert not store.exists() or not any(store.iterdir())

    def test_baseline_named_in_titles_without_fair_share(self, store_arguments, capsys):
        code = main([
            "sweep", "--groups", "G2-4", "--policies", "ucp,cooperative",
            *FAST, *store_arguments,
        ])
        assert code == 0
        assert "normalised to ucp" in capsys.readouterr().out

    def test_serial_pool_names_one_worker_whatever_jobs_says(
        self, store_arguments, capsys
    ):
        # The serial pool runs every task inline: no worker is started.
        code = main([
            "sweep", "--cores", "2", "--groups", "1", "--policies", "ucp",
            "--refs-per-core", "3000", "--jobs", "3", "--pool", "serial",
            *store_arguments,
        ])
        assert code == 0
        assert "1 workers, serial pool)" in capsys.readouterr().out

    def test_pool_choices_are_warm_and_serial(self, store_arguments, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["sweep", "--pool", "ssh", *FAST, *store_arguments])
        assert caught.value.code == 2
        # newer argparse versions print the choices without quotes
        assert re.search(
            r"invalid choice: '?ssh'? \(choose from '?warm'?, '?serial'?\)",
            capsys.readouterr().err,
        )

    def test_hosts_flag_is_gone(self, store_arguments, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["sweep", "--hosts", "local", *FAST, *store_arguments])
        assert caught.value.code == 2
        assert "unrecognized arguments: --hosts" in capsys.readouterr().err

    def test_unknown_env_pool_exits_with_the_message(
        self, store_arguments, monkeypatch
    ):
        monkeypatch.setenv("REPRO_POOL", "ssh")
        with pytest.raises(SystemExit, match="unknown pool 'ssh'; expected one "
                           "of warm, serial"):
            main(["sweep", "--groups", "1", *FAST, *store_arguments])

    def test_unknown_policy_rejected(self, store_arguments):
        with pytest.raises(SystemExit):
            main(["sweep", "--policies", "lru", *FAST, *store_arguments])


@pytest.mark.parametrize("cores", [2, 4])
def test_default_refs_per_core_is_the_figure_length(cores):
    options = build_parser().parse_args(["sweep", "--cores", str(cores)])
    assert _config_from(options).refs_per_core == FIGURE_REFS_PER_CORE[cores]


class TestSweepDryRun:
    def test_dry_run_lists_tasks_without_running(
        self, store_arguments, capsys
    ):
        code = main([
            "sweep", "--cores", "2", "--groups", "1", "--dry-run",
            *FAST, *store_arguments,
        ])
        out = capsys.readouterr().out
        assert code == 0
        # Alone-run dependencies are planned too, everything is a miss
        # against the fresh store, and nothing was executed.
        assert "miss" in out and "alone" in out and "group" in out
        assert "dry run, nothing executed" in out
        assert "0 cached" in out

    def test_dry_run_reports_hits_after_a_sweep(
        self, store_arguments, capsys
    ):
        main([
            "sweep", "--cores", "2", "--groups", "1",
            "--policies", "fair_share", *FAST, *store_arguments,
        ])
        capsys.readouterr()
        code = main([
            "sweep", "--cores", "2", "--groups", "1",
            "--policies", "fair_share", "--dry-run", *FAST, *store_arguments,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 would be computed" in out
        assert "miss" not in out

    def test_dry_run_covers_spec_files(self, tmp_path, store_arguments, capsys):
        from repro.experiment import Experiment
        from repro.sim.config import scaled_two_core

        spec_file = tmp_path / "experiments.json"
        spec_file.write_text(json.dumps([
            Experiment(
                "G2-1", "fair_share", scaled_two_core(refs_per_core=3000)
            ).to_dict()
        ]))
        code = main([
            "sweep", "--spec", str(spec_file), "--dry-run", *store_arguments,
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "group G2-1 fair_share" in out
        assert "dry run, nothing executed" in out


class TestGovernorSelection:
    def test_governed_sweep_round_trips_through_the_store(
        self, store_arguments, capsys
    ):
        governed = [
            "sweep", "--cores", "2", "--groups", "1",
            "--policies", "cooperative",
            "--governor", "coordinated",
            "--governor-param", "qos_slowdown=0.2",
            *FAST, *store_arguments,
        ]
        code = main(governed)
        assert code == 0
        assert "cooperative" in capsys.readouterr().out
        # Re-running is a pure cache hit under the governed key space.
        code = main(governed)
        assert code == 0
        assert "0 tasks computed" in capsys.readouterr().out

    def test_unknown_governor_rejected(self, store_arguments):
        with pytest.raises(SystemExit, match="registered governors"):
            main([
                "sweep", "--governor", "turbo", "--groups", "1",
                *FAST, *store_arguments,
            ])

    def test_governor_param_requires_governor(self, store_arguments):
        with pytest.raises(SystemExit, match="requires --governor"):
            main([
                "sweep", "--governor-param", "qos_slowdown=0.1",
                "--groups", "1", *FAST, *store_arguments,
            ])

    def test_malformed_governor_param_rejected(self, store_arguments):
        with pytest.raises(SystemExit, match="KEY=VALUE"):
            main([
                "sweep", "--governor", "coordinated",
                "--governor-param", "qos_slowdown", "--groups", "1",
                *FAST, *store_arguments,
            ])

    def test_unknown_governor_param_rejected(self, store_arguments):
        with pytest.raises(SystemExit, match="accepted"):
            main([
                "sweep", "--governor", "coordinated",
                "--governor-param", "slack=0.1", "--groups", "1",
                *FAST, *store_arguments,
            ])

    def test_out_of_range_governor_param_fails_before_any_work(self, tmp_path):
        """A parameter the governor would reject is rejected when the
        spec is built: no worker starts and no artifact is written."""
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="bad --governor selection"):
            main([
                "sweep", "--groups", "1", "--policies", "ucp",
                "--refs-per-core", "2000", "--governor", "coordinated",
                "--governor-param", "qos_slowdown=-0.5", "--jobs", "2",
                "--store", str(store),
            ])
        assert not store.exists() or not any(store.iterdir())

    def test_unknown_fixed_frequency_fails_before_any_work(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="bad --governor selection") as caught:
            main([
                "sweep", "--groups", "1", "--policies", "ucp",
                "--refs-per-core", "2000", "--governor", "fixed",
                "--governor-param", "freq_mhz=1700", "--jobs", "2",
                "--store", str(store),
            ])
        assert "1700 MHz is not an operating point" in str(caught.value)
        assert not store.exists() or not any(store.iterdir())

    def test_inverted_ondemand_thresholds_fail_before_any_work(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="bad --governor selection") as caught:
            main([
                "sweep", "--groups", "1", "--policies", "ucp",
                "--refs-per-core", "2000", "--governor", "ondemand",
                "--governor-param", "up_threshold=0.2",
                "--governor-param", "down_threshold=0.9", "--jobs", "2",
                "--store", str(store),
            ])
        assert "down_threshold < up_threshold" in str(caught.value)
        assert not store.exists() or not any(store.iterdir())

    def test_spec_sweeps_reject_the_governor_flag(
        self, tmp_path, store_arguments
    ):
        """Spec documents carry their own governor; silently ignoring
        the flag would hand back nominal-frequency results."""
        spec_file = tmp_path / "experiments.json"
        spec_file.write_text("[]")
        with pytest.raises(SystemExit, match="cannot be combined"):
            main([
                "sweep", "--spec", str(spec_file),
                "--governor", "coordinated", *store_arguments,
            ])

    def test_alone_rejects_the_governor_flag(self, store_arguments):
        with pytest.raises(SystemExit, match="nominal frequency"):
            main([
                "alone", "lbm", "--governor", "coordinated",
                *FAST, *store_arguments,
            ])


class TestAlone:
    def test_alone_profiles_and_classifies(self, store_arguments, capsys):
        code = main(["alone", "lbm", "povray", *FAST, *store_arguments])
        assert code == 0
        out = capsys.readouterr().out
        assert "lbm" in out and "povray" in out and "measured" in out

    def test_unknown_benchmark_rejected(self, store_arguments):
        with pytest.raises(SystemExit):
            main(["alone", "doom", *FAST, *store_arguments])


class TestReport:
    def test_report_requires_swept_results(self, store_arguments, capsys):
        code = main(["report", "--groups", "1", "--refs-per-core", "3000",
                     *store_arguments])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_report_renders_from_store_only(self, store_arguments, capsys):
        main(["sweep", "--cores", "2", "--groups", "1", *FAST, *store_arguments])
        capsys.readouterr()
        code = main(["report", "--groups", "1", "--refs-per-core", "3000",
                     *store_arguments])
        assert code == 0
        out = capsys.readouterr().out
        assert "weighted speedup" in out and "static" in out

    @pytest.mark.parametrize(
        "damage",
        [
            lambda envelope: "{corrupt",
            lambda envelope: json.dumps({**json.loads(envelope), "payload": {}}),
        ],
        ids=["torn-json", "undecodable-payload"],
    )
    def test_report_refuses_corrupt_artifact(self, tmp_path, capsys, damage):
        """A corrupt file must read as missing, never trigger simulation
        or a traceback."""
        store_arguments = ["--store", str(tmp_path / "store")]
        main(["sweep", "--cores", "2", "--groups", "1", *FAST, *store_arguments])
        capsys.readouterr()
        victim = next((tmp_path / "store").glob("*.json"))
        victim.write_text(damage(victim.read_text()))
        code = main(["report", "--groups", "1", "--refs-per-core", "3000",
                     *store_arguments])
        assert code == 1
        assert "missing" in capsys.readouterr().err

    def test_report_json_format_is_machine_readable(self, store_arguments, capsys):
        main(["sweep", "--cores", "2", "--groups", "1", *FAST, *store_arguments])
        capsys.readouterr()
        code = main(["report", "--groups", "1", "--refs-per-core", "3000",
                     "--format", "json", *store_arguments])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        assert document["n_cores"] == 2
        assert set(document["metrics"]) == {"speedup", "dynamic", "static"}
        speedup = document["metrics"]["speedup"]
        assert "G2-1" in speedup["groups"]
        assert speedup["groups"]["G2-1"]["fair_share"] == 1.0
        assert set(speedup["average"]) == set(document["policies"])

    def test_report_csv_format_is_flat_rows(self, store_arguments, capsys):
        main(["sweep", "--cores", "2", "--groups", "1", *FAST, *store_arguments])
        capsys.readouterr()
        code = main(["report", "--groups", "1", "--refs-per-core", "3000",
                     "--format", "csv", *store_arguments])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "metric,group,policy,value"
        rows = [line.split(",") for line in lines[1:]]
        # 3 metrics x (1 group + AVG) x 5 policies
        assert len(rows) == 3 * 2 * 5
        assert {row[0] for row in rows} == {"speedup", "dynamic", "static"}
        for row in rows:
            float(row[3])  # every value parses losslessly


class TestScenario:
    ARGS = ["scenario", "--cores", "2", "--refs-per-core", "8000",
            "--group", "G2-8", "--policies", "cooperative"]

    def test_consolidation_preset_prints_timeline(self, store_arguments, capsys):
        code = main([*self.ARGS, *store_arguments])
        assert code == 0
        out = capsys.readouterr().out
        assert "consolidation-G2-8" in out
        assert "depart:core1" in out
        assert "static baseline" in out

    def test_json_format_reports_gating_summary(self, store_arguments, capsys):
        code = main([*self.ARGS, "--format", "json", *store_arguments])
        assert code == 0
        document = json.loads(capsys.readouterr().out)
        run = document["runs"]["cooperative"]
        summary = run["summary"]
        assert summary["min_powered_ways"] < summary["initial_powered_ways"]
        assert summary["static_energy_nj"] < summary["static_energy_nj_baseline"]
        assert run["timeline"], "timeline must be serialised"
        assert document["scenario"]["events"][-1]["kind"] == "depart"

    def test_csv_format_emits_timeline_rows(self, store_arguments, capsys):
        code = main([*self.ARGS, "--format", "csv", *store_arguments])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("policy,cycle,active_cores")
        assert any("depart" in line for line in lines[1:])

    def test_spec_file_overrides_preset(self, tmp_path, capsys):
        spec = {
            "name": "from-spec",
            "events": [
                {"kind": "arrive", "core": 0, "at_cycle": 0, "benchmark": "lbm"},
                {"kind": "arrive", "core": 1, "at_cycle": 0,
                 "benchmark": "soplex"},
                {"kind": "depart", "core": 1, "at_cycle": 2_900_000,
                 "benchmark": None},
            ],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code = main([*self.ARGS, "--spec", str(path),
                     "--store", str(tmp_path / "store")])
        assert code == 0
        assert "from-spec" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "document, reason",
        [
            ({"name": "x", "events": [{"kind": "arrive", "core": 0}]},
             r"event #0 .* is missing field\(s\) at_cycle"),
            ({"events": []}, r"scenario is missing field\(s\) name"),
        ],
        ids=["event-without-at_cycle", "no-name"],
    )
    def test_malformed_spec_file_is_a_named_error(
        self, tmp_path, store_arguments, document, reason
    ):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(document))
        with pytest.raises(SystemExit) as caught:
            main([*self.ARGS, "--spec", str(path), *store_arguments])
        assert re.fullmatch(
            f"cannot read scenario spec {re.escape(str(path))}: {reason}",
            str(caught.value),
        )

    def test_pooled_preset_reports_progress_and_matches_inline(
        self, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("repro.obs.log._quiet", False)
        args = ["scenario", "--cores", "2", "--refs-per-core", "8000",
                "--group", "G2-8", "--policies", "cooperative,ucp",
                "--format", "json"]
        code = main([*args, "--jobs", "2", "--store", str(tmp_path / "pooled")])
        assert code == 0
        pooled = capsys.readouterr()
        assert re.search(r"^\[\d+/\d+\] .* warm\)$", pooled.err, re.M)
        code = main([*args, "--jobs", "1", "--store", str(tmp_path / "inline")])
        assert code == 0
        assert pooled.out == capsys.readouterr().out

    def test_rejects_bad_fraction_and_group(self, store_arguments):
        with pytest.raises(SystemExit):
            main([*self.ARGS, "--at-fraction", "1.5", *store_arguments])
        with pytest.raises(SystemExit):
            main(["scenario", "--cores", "2", "--group", "G4-1",
                  *store_arguments])

    def test_spec_round_trips_a_generated_scenario(self, tmp_path, capsys):
        """scenario_to_dict -> JSON file -> --spec -> identical timeline."""
        from repro.experiment import Experiment
        from repro.orchestration.serialize import scenario_to_dict
        from repro.scenarios import generate_scenario
        from repro.sim.config import scaled_two_core
        from repro.sim.runner import ExperimentRunner

        scenario = generate_scenario(7, 2, "storm", horizon_cycles=600_000)
        path = tmp_path / "generated.json"
        path.write_text(json.dumps(scenario_to_dict(scenario)))
        code = main(["scenario", "--cores", "2", "--refs-per-core", "8000",
                     "--policies", "cooperative", "--spec", str(path),
                     "--format", "json", "--store", str(tmp_path / "store")])
        assert code == 0
        document = json.loads(capsys.readouterr().out)

        # The spec survives the file hop byte-for-byte...
        assert document["scenario"] == scenario_to_dict(scenario)

        # ...and the CLI's run is the same run a direct in-process
        # execution produces (fresh store, so this truly re-simulates).
        run = ExperimentRunner().run(
            Experiment.for_scenario(
                scenario,
                system=scaled_two_core(refs_per_core=8_000),
                policy="cooperative",
            )
        )
        cli_timeline = document["runs"]["cooperative"]["timeline"]
        assert cli_timeline == [sample.to_dict() for sample in run.timeline]
        summary = document["runs"]["cooperative"]["summary"]
        assert summary["end_cycle"] == run.end_cycle
        assert summary["total_energy_nj"] == run.total_energy_nj


class TestScenarioSuite:
    def test_list_prints_the_selection_and_grid(self, capsys):
        code = main(["scenario", "--suite", "quick", "--list"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 11
        assert any(line.startswith("storm-2c-s000") for line in lines)
        assert lines[-1] == (
            "10 scenario(s) x 2 policies x 2 governors = 40 runs"
        )

    def test_list_honours_filter_policies_and_governors(self, capsys):
        code = main(["scenario", "--suite", "full", "--list",
                     "--filter", "storm-2c",
                     "--policies", "unmanaged,cooperative",
                     "--governors", "none,coordinated,ondemand"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert [line.split()[0] for line in lines[:-1]] == [
            f"storm-2c-s{seed:03d}" for seed in range(5)
        ]
        assert lines[-1] == (
            "5 scenario(s) x 2 policies x 3 governors = 30 runs"
        )

    def test_list_rejects_a_filter_matching_nothing(self):
        with pytest.raises(SystemExit, match="matches no suite scenario"):
            main(["scenario", "--suite", "quick", "--list",
                  "--filter", "blizzard"])

    def test_suite_rejects_single_scenario_flags(self, tmp_path):
        spec = tmp_path / "spec.json"
        spec.write_text("{}")
        for extra in (
            ["--spec", str(spec)],
            ["--group", "G2-8"],
            ["--governor", "coordinated"],
        ):
            with pytest.raises(SystemExit,
                               match="cannot be combined with --suite"):
                main(["scenario", "--suite", "quick", *extra])

    def test_filtered_suite_runs_clean_and_writes_report(
        self, tmp_path, capsys
    ):
        report_path = tmp_path / "report.json"
        code = main(["scenario", "--suite", "quick", "--filter", "sparse-2c",
                     "--policies", "unmanaged,cooperative",
                     "--governors", "none,coordinated",
                     "--report", str(report_path),
                     "--store", str(tmp_path / "store"), "--jobs", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK: zero invariant violations" in out
        payload = json.loads(report_path.read_text())
        assert payload["ok"] is True
        assert len(payload["rows"]) == 4
        assert {row["governor"] for row in payload["rows"]} == {
            "none", "coordinated",
        }


class TestClean:
    def test_clean_empties_the_store(self, store_arguments, capsys):
        main(["sweep", "--cores", "2", "--groups", "1", *FAST, *store_arguments])
        capsys.readouterr()
        assert main(["clean", *store_arguments]) == 0
        assert "removed" in capsys.readouterr().out
        code = main(["report", "--groups", "1", "--refs-per-core", "3000",
                     *store_arguments])
        assert code == 1

    def test_clean_on_missing_store_is_fine(self, tmp_path, capsys):
        assert main(["clean", "--store", str(tmp_path / "nowhere")]) == 0
        assert "removed 0" in capsys.readouterr().out


POOL_COMMANDS = [
    ["sweep", "--cores", "2", "--groups", "1", "--refs-per-core", "3000"],
    ["scenario", "--suite", "quick", "--filter", "sparse-2c"],
]


class TestJobsEnvironment:
    """A non-integer ``$REPRO_JOBS``, or a job count below 1 from either
    source, is a clean CLI error on every subcommand that sizes a pool,
    never a traceback."""

    MESSAGE = "$REPRO_JOBS must be an integer, got 'auto'"

    @pytest.mark.parametrize("command", POOL_COMMANDS)
    def test_exits_with_the_message(
        self, monkeypatch, store_arguments, command
    ):
        monkeypatch.setenv("REPRO_JOBS", "auto")
        with pytest.raises(SystemExit) as exit_info:
            main([*command, *store_arguments])
        assert self.MESSAGE in str(exit_info.value.code)

    @pytest.mark.parametrize("command", POOL_COMMANDS)
    def test_jobs_below_one_exits_with_the_message(self, store_arguments, command):
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--jobs", "0", *store_arguments])
        assert "--jobs/max_workers must be at least 1, got 0" in str(
            exit_info.value.code
        )

    @pytest.mark.parametrize("command", POOL_COMMANDS)
    def test_env_jobs_below_one_exits_with_the_message(
        self, monkeypatch, store_arguments, command
    ):
        monkeypatch.setenv("REPRO_JOBS", "-4")
        with pytest.raises(SystemExit) as exit_info:
            main([*command, *store_arguments])
        assert "$REPRO_JOBS must be at least 1, got '-4'" in str(exit_info.value.code)
