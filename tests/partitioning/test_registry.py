"""The pluggable policy registry: eager validation, plugin round-trips.

The registry's contract is that *everything fails at spec time*:
unknown policy names list the registered alternatives, unknown or
mis-typed parameters are rejected before a simulator exists, and
duplicate registrations raise instead of silently shadowing.  Third-
party policies registered with ``@register_policy`` are first-class —
they round-trip through :class:`Experiment` serialisation and run
through the standard runner path.
"""

from dataclasses import dataclass

import pytest

from repro.experiment import Experiment
from repro.partitioning.base import BaseSharedCachePolicy
from repro.partitioning.registry import (
    POLICY_NAMES,
    NoParams,
    PolicySpec,
    build_policy,
    policy_info,
    register_policy,
    registered_policies,
    unregister_policy,
)
from repro.sim.runner import ALL_POLICIES, ExperimentRunner


@dataclass(frozen=True)
class _PinParams:
    pinned_core: int = 0
    pinned_ways: int = 6
    label: str = "pin"


class _PinPolicy(BaseSharedCachePolicy):
    name = "Pinned"
    needs_monitors = False

    def __init__(self, *args, pinned_core=0, pinned_ways=6, label="pin", **kwargs):
        super().__init__(*args, **kwargs)
        ways = self.geometry.ways
        for core in range(self.n_cores):
            block = (
                tuple(range(pinned_ways)) if core == pinned_core
                else tuple(range(pinned_ways, ways))
            )
            self._set_core_ways(core, block, block)


@pytest.fixture
def pin_policy():
    register_policy("pin_test", params=_PinParams)(_PinPolicy)
    yield "pin_test"
    unregister_policy("pin_test")


class TestErrorPaths:
    def test_unknown_policy_lists_registered_names(self):
        with pytest.raises(ValueError) as error:
            PolicySpec("definitely_not_a_policy")
        message = str(error.value)
        for name in ALL_POLICIES:
            assert name in message

    def test_unknown_param_rejected_eagerly_with_accepted_list(self):
        with pytest.raises(ValueError) as error:
            PolicySpec("cooperative", aggressiveness=3)
        message = str(error.value)
        assert "aggressiveness" in message
        assert "threshold" in message and "seed" in message

    def test_param_on_parameterless_policy_rejected(self):
        with pytest.raises(ValueError, match="no parameters"):
            PolicySpec("unmanaged", threshold=0.1)

    def test_wrong_typed_param_rejected_eagerly(self):
        with pytest.raises(TypeError, match="threshold"):
            PolicySpec("cooperative", threshold="high")
        with pytest.raises(TypeError, match="seed"):
            PolicySpec("cooperative", seed=1.5)

    def test_int_coerces_to_float_for_canonical_binding(self):
        assert PolicySpec("cooperative", threshold=0) == PolicySpec(
            "cooperative", threshold=0.0
        )

    def test_duplicate_registration_raises(self, pin_policy):
        with pytest.raises(ValueError, match="already registered"):
            register_policy(pin_policy)(_PinPolicy)

    def test_unregister_unknown_raises(self):
        with pytest.raises(ValueError, match="not registered"):
            unregister_policy("never_was_registered")

    def test_non_dataclass_params_rejected(self):
        with pytest.raises(TypeError, match="dataclass"):
            register_policy("bad", params=dict)


class TestRegistryIntrospection:
    def test_builtins_registered(self):
        names = registered_policies()
        for name in ALL_POLICIES:
            assert name in names

    def test_iteration_keeps_paper_legend_order(self, pin_policy):
        # Built-ins lead in figure-legend order; third-party
        # registrations follow.
        names = registered_policies()
        assert names[: len(ALL_POLICIES)] == ALL_POLICIES
        assert pin_policy in names[len(ALL_POLICIES):]
        assert list(POLICY_NAMES)[: len(ALL_POLICIES)] == list(ALL_POLICIES)

    def test_policy_names_view_tracks_registry(self, pin_policy):
        assert POLICY_NAMES[pin_policy] == "Pinned"
        assert pin_policy in POLICY_NAMES
        assert "nope" not in POLICY_NAMES

    def test_info_carries_declared_metadata(self):
        cpe = policy_info("cpe")
        assert cpe.profile_kwarg == "profiles"
        assert not cpe.needs_monitors
        cooperative = policy_info("cooperative")
        assert cooperative.needs_monitors
        assert set(cooperative.param_defaults()) == {"threshold", "seed"}
        assert policy_info("unmanaged").params_type is NoParams

    def test_spec_equality_over_bound_params(self):
        assert PolicySpec("cooperative") == PolicySpec("cooperative", seed=None)
        assert PolicySpec("cooperative", seed=7) != PolicySpec("cooperative")
        assert hash(PolicySpec("ucp")) == hash(PolicySpec("ucp"))

    def test_with_params_merges(self):
        spec = PolicySpec("cooperative", threshold=0.1).with_params(seed=9)
        assert spec.non_default_params() == {"threshold": 0.1, "seed": 9}


class TestThirdPartyRoundTrip:
    def test_spec_serialisation_round_trips(self, pin_policy):
        spec = PolicySpec(pin_policy, pinned_core=1, label="qos")
        rebuilt = PolicySpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.bound_params()["pinned_ways"] == 6

    def test_experiment_round_trip_and_distinct_keys(
        self, pin_policy, tiny_two_core
    ):
        experiment = Experiment(
            "G2-4", PolicySpec(pin_policy, pinned_core=1), tiny_two_core
        )
        rebuilt = Experiment.from_dict(experiment.to_dict())
        assert rebuilt == experiment
        assert rebuilt.task_key() == experiment.task_key()
        # Different third-party params address different artifacts.
        other = Experiment(
            "G2-4", PolicySpec(pin_policy, pinned_core=0), tiny_two_core
        )
        assert other.task_key() != experiment.task_key()
        # ...and default-parameter specs match the all-defaults key.
        default = Experiment("G2-4", PolicySpec(pin_policy), tiny_two_core)
        explicit_default = Experiment(
            "G2-4", PolicySpec(pin_policy, pinned_ways=6), tiny_two_core
        )
        assert default.task_key() == explicit_default.task_key()

    def test_non_config_linked_threshold_stays_in_spec(self, tiny_two_core):
        """A third-party threshold with a non-None default is an
        ordinary parameter: never folded into the config, delivered
        to the policy verbatim."""

        @dataclass(frozen=True)
        class _OwnThresholdParams:
            threshold: float = 0.5

        class _OwnThresholdPolicy(BaseSharedCachePolicy):
            name = "Own Threshold"
            needs_monitors = False

            def __init__(self, *args, threshold=0.5, **kwargs):
                super().__init__(*args, **kwargs)
                self.threshold = threshold

        register_policy("own_threshold", params=_OwnThresholdParams)(
            _OwnThresholdPolicy
        )
        try:
            experiment = Experiment(
                "G2-4", PolicySpec("own_threshold", threshold=0.7), tiny_two_core
            )
            assert experiment.policy.non_default_params() == {"threshold": 0.7}
            assert experiment.system.threshold == tiny_two_core.threshold
            run = ExperimentRunner().run(experiment)
            assert run.policy == "Own Threshold"
            from repro.sim.simulator import CMPSimulator

            runner = ExperimentRunner()
            traces = [
                runner.trace_for(b, tiny_two_core) for b in ("lbm", "povray")
            ]
            simulator = CMPSimulator(
                tiny_two_core, traces, PolicySpec("own_threshold", threshold=0.7)
            )
            assert simulator.policy.threshold == 0.7
        finally:
            unregister_policy("own_threshold")

    def test_third_party_runs_through_standard_runner(
        self, pin_policy, tiny_two_core
    ):
        runner = ExperimentRunner()
        run = runner.run(
            Experiment("G2-4", PolicySpec(pin_policy, pinned_core=1), tiny_two_core)
        )
        assert run.policy == "Pinned"
        # The pinned core owns 6/8 ways; the probe width reflects it.
        assert 0 < run.average_ways_probed < tiny_two_core.l2.ways

    def test_unregistered_spec_fails_eagerly_after_removal(self):
        register_policy("ephemeral_policy")(_PinPolicy)
        spec = PolicySpec("ephemeral_policy")
        unregister_policy("ephemeral_policy")
        with pytest.raises(ValueError, match="unknown policy"):
            spec.info


class TestBuildPolicy:
    def test_config_linked_params_resolve_from_config(self, tiny_two_core):
        from repro.sim.simulator import CMPSimulator

        config = tiny_two_core.with_threshold(0.17)
        runner = ExperimentRunner()
        traces = [
            runner.trace_for(b, config) for b in ("lbm", "povray")
        ]
        simulator = CMPSimulator(config, traces, "cooperative")
        assert simulator.policy.threshold == 0.17

    def test_spec_param_overrides_config(self, tiny_two_core):
        from repro.sim.simulator import CMPSimulator

        runner = ExperimentRunner()
        traces = [
            runner.trace_for(b, tiny_two_core) for b in ("lbm", "povray")
        ]
        simulator = CMPSimulator(
            tiny_two_core, traces, PolicySpec("cooperative", seed=99)
        )
        assert simulator.policy_spec.non_default_params() == {"seed": 99}

    def test_build_policy_accepts_string(self, tiny_two_core):
        from repro.cache.set_associative import SetAssociativeCache
        from repro.cache.memory import MainMemory
        from repro.energy.accounting import EnergyAccounting
        from repro.energy.cacti import CactiEnergyModel
        from repro.partitioning.base import PolicyStats

        cache = SetAssociativeCache(tiny_two_core.l2)
        policy = build_policy(
            "fair_share",
            cache,
            MainMemory(),
            EnergyAccounting(CactiEnergyModel(tiny_two_core.l2, 2)),
            PolicyStats(2),
        )
        assert policy.name == "Fair Share"
