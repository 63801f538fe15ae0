"""The Experiment spec model: eager validation, normalisation, keys.

The spec's load-bearing guarantees:

* equal runs are equal *values* (threshold folding, alone collapsing);
* :meth:`Experiment.task_key` reproduces the historical store keys
  for every built-in run shape;
* serialisation round-trips losslessly.
"""

import dataclasses
import json

import pytest

from repro.experiment import (
    Experiment,
    WorkloadSpec,
    by_group_policy,
    config_from_dict,
    config_to_dict,
)
from repro.orchestration import serialize
from repro.orchestration.serialize import (
    alone_task_key,
    group_task_key,
    scenario_task_key,
)
from repro.partitioning.registry import PolicySpec
from repro.scenarios.model import Scenario, consolidation_scenario
from repro.sim.config import scaled_four_core, scaled_two_core


class TestWorkloadSpec:
    def test_coerce_group_and_benchmark(self):
        assert WorkloadSpec.coerce("G2-8").kind == "group"
        assert WorkloadSpec.coerce("lbm").kind == "benchmark"
        assert WorkloadSpec.coerce("G4-3").benchmarks != ()

    def test_unknown_names_fail_eagerly(self):
        with pytest.raises(ValueError, match="neither"):
            WorkloadSpec.coerce("G9-1")
        with pytest.raises(KeyError):
            WorkloadSpec.table_group("G9-1")
        with pytest.raises(ValueError, match="unknown benchmark"):
            WorkloadSpec.benchmark("doom")


class TestConstruction:
    def test_exactly_one_of_workload_or_scenario(self, tiny_two_core):
        with pytest.raises(ValueError, match="exactly one"):
            Experiment(system=tiny_two_core)
        scenario = Scenario.static(("lbm", "povray"))
        with pytest.raises(ValueError, match="exactly one"):
            Experiment("G2-4", "ucp", tiny_two_core, scenario)

    def test_group_size_must_match_cores(self, tiny_two_core):
        with pytest.raises(ValueError, match="4 applications"):
            Experiment("G4-1", "ucp", tiny_two_core)

    def test_alone_runs_collapse_to_profiling_config(self, tiny_two_core):
        experiment = Experiment.alone_run("lbm", system=tiny_two_core)
        assert experiment.kind == "alone"
        assert experiment.system == tiny_two_core.alone()
        assert experiment == Experiment("lbm", "unmanaged", tiny_two_core)

    def test_alone_rejects_managed_policies(self, tiny_two_core):
        with pytest.raises(ValueError, match="unmanaged"):
            Experiment("lbm", "cooperative", tiny_two_core)

    def test_scenario_validates_against_cores(self, tiny_two_core):
        bad = consolidation_scenario(("lbm", "povray", "mcf"), [2], 1_000)
        with pytest.raises(ValueError, match="core"):
            Experiment.for_scenario(bad, system=tiny_two_core)

    def test_group_infers_scaled_system(self):
        assert Experiment(workload="G2-8").system == scaled_two_core()
        assert Experiment(workload="G4-2").system == scaled_four_core()

    def test_threshold_param_folds_into_system(self, tiny_two_core):
        spec = Experiment(
            "G2-4", PolicySpec("cooperative", threshold=0.2), tiny_two_core
        )
        assert spec.system.threshold == 0.2
        assert spec.policy == PolicySpec("cooperative")
        assert spec == Experiment(
            "G2-4", "cooperative", tiny_two_core.with_threshold(0.2)
        )

    def test_specs_are_hashable_set_members(self, tiny_two_core):
        grid = {
            Experiment("G2-4", policy, tiny_two_core)
            for policy in ("ucp", "cooperative", "ucp")
        }
        assert len(grid) == 2


class TestBuilders:
    def test_two_core_defaults(self):
        experiment = Experiment.two_core("G2-8")
        assert experiment.system == scaled_two_core()
        assert experiment.policy_name == "cooperative"

    def test_fluent_chain(self):
        experiment = (
            Experiment.two_core("G2-8", refs_per_core=9_000)
            .with_policy(PolicySpec("ucp"))
            .with_threshold(0.1)
        )
        assert experiment.policy_name == "ucp"
        assert experiment.system.threshold == 0.1
        assert experiment.system.refs_per_core == 9_000

    def test_with_refs(self, tiny_two_core):
        experiment = Experiment("G2-4", "ucp", tiny_two_core).with_refs(4_000)
        assert experiment.system.refs_per_core == 4_000

    def test_with_scenario_swaps_workload(self, tiny_two_core):
        scenario = Scenario.static(("lbm", "povray"))
        experiment = Experiment("G2-4", "ucp", tiny_two_core).with_scenario(scenario)
        assert experiment.kind == "scenario"
        assert experiment.workload is None

    def test_grid_covers_cross_product(self, tiny_two_core):
        grid = Experiment.grid(tiny_two_core, ["G2-1", "G2-2"], ["ucp", "cpe"])
        assert len(grid) == 4
        assert {e.policy_name for e in grid} == {"ucp", "cpe"}


class TestTaskKeys:
    def test_group_key_matches_legacy(self, tiny_two_core):
        experiment = Experiment("G2-4", "cooperative", tiny_two_core)
        assert experiment.task_key() == group_task_key(
            tiny_two_core, "G2-4", "cooperative"
        )

    def test_alone_key_matches_legacy(self, tiny_two_core):
        experiment = Experiment.alone_run("lbm", system=tiny_two_core)
        assert experiment.task_key() == alone_task_key(tiny_two_core, "lbm")

    def test_scenario_key_matches_legacy(self, tiny_two_core):
        scenario = consolidation_scenario(("lbm", "povray"), [1], 50_000)
        experiment = Experiment.for_scenario(
            scenario, system=tiny_two_core, policy="cooperative"
        )
        assert experiment.task_key() == scenario_task_key(
            tiny_two_core, scenario, "cooperative"
        )

    def test_threshold_spec_key_matches_legacy_with_threshold(self, tiny_two_core):
        experiment = Experiment(
            "G2-4", PolicySpec("cooperative", threshold=0.1), tiny_two_core
        )
        assert experiment.task_key() == group_task_key(
            tiny_two_core.with_threshold(0.1), "G2-4", "cooperative"
        )

    def test_non_default_params_open_new_key_space(self, tiny_two_core):
        pinned = Experiment(
            "G2-4", PolicySpec("cooperative", seed=7), tiny_two_core
        )
        default = Experiment("G2-4", "cooperative", tiny_two_core)
        assert pinned.task_key() != default.task_key()

    def test_key_is_computed_once_per_spec(self, tiny_two_core, monkeypatch):
        calls = []
        digest = serialize.task_key

        def counting(*args, **kwargs):
            calls.append(args[0])
            return digest(*args, **kwargs)

        monkeypatch.setattr(serialize, "task_key", counting)
        experiment = Experiment("G2-4", "cooperative", tiny_two_core)
        first = experiment.task_key()
        assert calls == ["group"]
        assert experiment.task_key() == first
        assert calls == ["group"], "a second call re-entered serialize.task_key"

    def test_copies_get_their_own_key(self, tiny_two_core):
        experiment = Experiment("G2-4", "cooperative", tiny_two_core)
        experiment.task_key()
        for copy, fresh in [
            (
                experiment.with_policy("ucp"),
                Experiment("G2-4", "ucp", tiny_two_core),
            ),
            (
                experiment.with_threshold(0.1),
                Experiment(
                    "G2-4", "cooperative", tiny_two_core.with_threshold(0.1)
                ),
            ),
            (
                experiment.with_governor("coordinated"),
                Experiment(
                    "G2-4", "cooperative", tiny_two_core, governor="coordinated"
                ),
            ),
        ]:
            assert copy.task_key() != experiment.task_key()
            assert copy.task_key() == fresh.task_key()


class TestAloneInterning:
    def test_one_instance_per_benchmark_and_profiling_config(self, tiny_two_core):
        spec = Experiment.alone_run("lbm", system=tiny_two_core)
        # Thresholds fold away in the profiling config, so a threshold
        # sweep shares one alone spec per benchmark.
        assert Experiment.alone_run("lbm", system=tiny_two_core.with_threshold(0.2)) is spec
        assert Experiment.alone_run("mcf", system=tiny_two_core) is not spec

    def test_equal_configs_of_other_types_stay_apart(self, tiny_two_core):
        exact = dataclasses.replace(tiny_two_core, umon_decay=1.0)
        loose = dataclasses.replace(tiny_two_core, umon_decay=1)
        assert exact == loose
        a = Experiment.alone_run("lbm", system=loose)
        b = Experiment.alone_run("lbm", system=exact)
        assert a == b and a is not b
        assert a.task_key() == alone_task_key(loose, "lbm")
        assert b.task_key() == alone_task_key(exact, "lbm")
        assert a.task_key() != b.task_key()

    def test_dependencies_are_memoised_interned_lists(self, tiny_two_core):
        spec = Experiment("G2-4", "cpe", tiny_two_core)
        first = spec.alone_dependencies()
        assert isinstance(first, list)
        first.clear()  # the caller owns the list, not the memo
        second = spec.alone_dependencies()
        assert [d.workload.name for d in second] == list(spec.benchmarks)
        assert all(
            dependency is Experiment.alone_run(dependency.workload.name, system=tiny_two_core)
            for dependency in second
        )


class TestSerialisation:
    def test_round_trip_all_kinds(self, tiny_two_core):
        scenario = consolidation_scenario(("lbm", "povray"), [1], 60_000)
        specs = [
            Experiment("G2-4", "cooperative", tiny_two_core),
            Experiment("G2-4", PolicySpec("cooperative", seed=3), tiny_two_core),
            Experiment.alone_run("gcc", system=tiny_two_core),
            Experiment.for_scenario(scenario, system=tiny_two_core, policy="ucp"),
        ]
        for spec in specs:
            document = json.loads(json.dumps(spec.to_dict()))
            rebuilt = Experiment.from_dict(document)
            assert rebuilt == spec
            assert rebuilt.task_key() == spec.task_key()

    def test_config_round_trip(self, tiny_two_core):
        rebuilt = config_from_dict(
            json.loads(json.dumps(config_to_dict(tiny_two_core)))
        )
        assert rebuilt == tiny_two_core
        assert rebuilt.l2.num_sets == tiny_two_core.l2.num_sets


class TestGovernorOnSpec:
    """The DVFS half of a spec: absent = legacy keys, present = new
    key space, lossless round-trips, eager validation."""

    def test_absent_governor_keeps_legacy_key(self, tiny_two_core):
        experiment = Experiment("G2-1", "cooperative", tiny_two_core)
        assert experiment.governor is None
        assert experiment.task_key() == group_task_key(
            tiny_two_core, "G2-1", "cooperative"
        )

    def test_governor_opens_new_key_space(self, tiny_two_core):
        from repro.dvfs.governors import GovernorSpec

        plain = Experiment("G2-1", "cooperative", tiny_two_core)
        governed = plain.with_governor(GovernorSpec("fixed"))
        assert governed.task_key() != plain.task_key()
        # Distinct parameterisations never collide either.
        tight = plain.with_governor(
            GovernorSpec("coordinated", qos_slowdown=0.05)
        )
        loose = plain.with_governor(
            GovernorSpec("coordinated", qos_slowdown=0.2)
        )
        assert len({plain.task_key(), tight.task_key(), loose.task_key()}) == 3

    def test_governor_string_coerces_and_round_trips(self, tiny_two_core):
        from repro.dvfs.governors import GovernorSpec

        experiment = Experiment(
            "G2-1", "cooperative", tiny_two_core, governor="ondemand"
        )
        assert experiment.governor == GovernorSpec("ondemand")
        rebuilt = Experiment.from_dict(
            json.loads(json.dumps(experiment.to_dict()))
        )
        assert rebuilt == experiment
        assert rebuilt.task_key() == experiment.task_key()
        assert "+ondemand" in experiment.label

    def test_scenario_spec_carries_governor(self, tiny_two_core):
        scenario = consolidation_scenario(("lbm", "povray"), [1], 2_000_000)
        governed = Experiment.for_scenario(
            scenario,
            system=tiny_two_core,
            policy="cooperative",
            governor="fixed",
        )
        plain = Experiment.for_scenario(
            scenario, system=tiny_two_core, policy="cooperative"
        )
        assert governed.task_key() != plain.task_key()
        assert plain.task_key() == scenario_task_key(
            tiny_two_core, scenario, "cooperative"
        )

    def test_alone_runs_reject_governors(self, tiny_two_core):
        with pytest.raises(ValueError, match="nominal frequency"):
            Experiment.alone_run(
                "lbm", system=tiny_two_core
            ).with_governor("fixed")

    def test_unknown_governor_fails_eagerly(self, tiny_two_core):
        with pytest.raises(ValueError, match="registered governors"):
            Experiment(
                "G2-1", "cooperative", tiny_two_core, governor="turbo"
            )

    def test_grid_applies_governor_to_every_cell(self, tiny_two_core):
        from repro.dvfs.governors import GovernorSpec

        spec = GovernorSpec("coordinated", qos_slowdown=0.2)
        grid = Experiment.grid(
            tiny_two_core, ["G2-1"], ["ucp", "cooperative"], governor=spec
        )
        assert all(cell.governor == spec for cell in grid)
        # Alone dependencies stay governor-free (the QoS reference).
        for cell in grid:
            for dependency in cell.alone_dependencies():
                assert dependency.governor is None


class TestPivot:
    def test_by_group_policy_shapes_figure_tables(self, tiny_two_core):
        results = {
            Experiment("G2-1", "ucp", tiny_two_core): "a",
            Experiment("G2-1", "cpe", tiny_two_core): "b",
            Experiment("G2-2", "ucp", tiny_two_core): "c",
            Experiment.alone_run("lbm", system=tiny_two_core): "ignored",
        }
        assert by_group_policy(results) == {
            "G2-1": {"ucp": "a", "cpe": "b"},
            "G2-2": {"ucp": "c"},
        }
