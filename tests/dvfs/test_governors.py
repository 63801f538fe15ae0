"""Governor registry, GovernorSpec validation, decide() logic."""

import dataclasses

import pytest

from repro.dvfs.governors import (
    GOVERNOR_NAMES,
    BaseGovernor,
    CoordinatedGovernor,
    CoordinatedParams,
    CoreTelemetry,
    FixedGovernor,
    GovernorSpec,
    OndemandGovernor,
    OndemandParams,
    build_governor,
    governor_info,
    register_governor,
    registered_governors,
    unregister_governor,
)
from repro.dvfs.model import default_vf_table


def _telemetry(core, *, wall, stall, level=0, active=True, allocation=4):
    return CoreTelemetry(
        core=core,
        active=active,
        level=level,
        instructions=wall // 4,
        wall_cycles=wall,
        stall_cycles=stall,
        allocation=allocation,
    )


class TestRegistry:
    def test_builtins_registered_in_order(self):
        names = registered_governors()
        assert names[:3] == ("fixed", "ondemand", "coordinated")
        assert GOVERNOR_NAMES["coordinated"] == "Coordinated"

    def test_unknown_governor_lists_registered(self):
        with pytest.raises(ValueError, match="registered governors"):
            governor_info("nonexistent")
        with pytest.raises(ValueError, match="registered governors"):
            GovernorSpec("nonexistent")

    def test_duplicate_registration_raises(self):
        with pytest.raises(ValueError, match="already registered"):
            register_governor("fixed")(BaseGovernor)

    def test_third_party_round_trip(self):
        @dataclasses.dataclass(frozen=True)
        class RaceParams:
            sprint_epochs: int = 3

        @register_governor("race_to_idle", params=RaceParams)
        class RaceToIdle(BaseGovernor):
            name = "Race To Idle"

            def __init__(self, table, n_cores, sprint_epochs=3):
                super().__init__(table, n_cores)
                self.sprint_epochs = sprint_epochs

            def decide(self, telemetry):
                return self.levels

        try:
            spec = GovernorSpec("race_to_idle", sprint_epochs=5)
            assert spec.display_name == "Race To Idle"
            assert spec.non_default_params() == {"sprint_epochs": 5}
            rebuilt = GovernorSpec.from_dict(spec.to_dict())
            assert rebuilt == spec
            governor = build_governor(spec, default_vf_table(), 2)
            assert governor.sprint_epochs == 5
            assert "race_to_idle" in registered_governors()
        finally:
            unregister_governor("race_to_idle")
        with pytest.raises(ValueError, match="not registered"):
            unregister_governor("race_to_idle")

    def test_params_must_be_a_dataclass(self):
        with pytest.raises(TypeError, match="dataclass"):
            register_governor("bad", params=dict)


class TestGovernorSpec:
    def test_unknown_parameter_lists_accepted(self):
        with pytest.raises(ValueError, match="accepted"):
            GovernorSpec("coordinated", nope=1)

    def test_mistyped_parameter_rejected_eagerly(self):
        with pytest.raises(TypeError, match="qos_slowdown"):
            GovernorSpec("coordinated", qos_slowdown="loose")

    def test_parameter_errors_name_the_governor_kind(self):
        with pytest.raises(ValueError, match="for governor 'coordinated'"):
            GovernorSpec("coordinated", bogus=1)
        with pytest.raises(
            TypeError, match="governor 'coordinated' parameter 'qos_slowdown'"
        ):
            GovernorSpec("coordinated", qos_slowdown="loose")

    def test_equality_over_bound_params(self):
        assert GovernorSpec("coordinated") == GovernorSpec(
            "coordinated", qos_slowdown=0.10
        )
        assert GovernorSpec("coordinated", qos_slowdown=0.2) != GovernorSpec(
            "coordinated"
        )

    def test_int_coerces_to_float(self):
        spec = GovernorSpec("coordinated", qos_slowdown=1)
        assert spec.bound_params()["qos_slowdown"] == 1.0

    def test_with_params(self):
        spec = GovernorSpec("ondemand").with_params(up_threshold=0.9)
        assert spec.bound_params()["up_threshold"] == 0.9
        assert spec.bound_params()["down_threshold"] == 0.35


class TestFixedGovernor:
    def test_defaults_to_nominal(self):
        governor = build_governor(GovernorSpec("fixed"), default_vf_table(), 2)
        assert governor.levels == [0, 0]

    def test_pins_requested_frequency(self):
        table = default_vf_table()
        governor = build_governor(
            GovernorSpec("fixed", freq_mhz=1200), table, 2
        )
        assert governor.levels == [table.level_of(1200)] * 2
        # decide never moves anything.
        assert governor.decide(
            [_telemetry(0, wall=1000, stall=900)]
        ) == governor.levels

    def test_unknown_frequency_lists_table(self):
        with pytest.raises(ValueError, match="not an operating point"):
            build_governor(
                GovernorSpec("fixed", freq_mhz=1700), default_vf_table(), 2
            )

    def test_unknown_frequency_fails_when_the_spec_is_built(self):
        with pytest.raises(ValueError, match="1700 MHz is not an operating point"):
            GovernorSpec("fixed", freq_mhz=1700)
        with pytest.raises(ValueError, match="1700 MHz is not an operating point"):
            FixedGovernor(default_vf_table(), 2, freq_mhz=1700)


class TestOndemandGovernor:
    def test_thresholds_validate(self):
        with pytest.raises(ValueError, match="down_threshold"):
            build_governor(
                GovernorSpec("ondemand", up_threshold=0.2, down_threshold=0.5),
                default_vf_table(),
                2,
            )

    def test_spec_rejects_inverted_thresholds(self):
        """The range rule lives on ``OndemandParams``, so a bad spec
        fails where it is built, not in the worker that runs it."""
        with pytest.raises(ValueError, match="down_threshold < up_threshold"):
            GovernorSpec("ondemand", up_threshold=0.2, down_threshold=0.9)
        with pytest.raises(ValueError, match="down_threshold < up_threshold"):
            OndemandGovernor(
                default_vf_table(), 2, up_threshold=0.2, down_threshold=0.9
            )

    @pytest.mark.parametrize(
        "up, down",
        [(0.5, 0.5), (0.6, -0.1), (1.5, 0.35), (0.75, 0.9)],
        ids=["equal", "negative-down", "up-above-one", "inverted"],
    )
    def test_every_check_site_gives_one_message(self, up, down):
        """Params, spec and constructor share one rule, so each raises
        the same message for the same bad pair."""
        with pytest.raises(ValueError) as from_params:
            OndemandParams(up_threshold=up, down_threshold=down)
        message = str(from_params.value)
        assert message == (
            f"need 0 <= down_threshold < up_threshold <= 1, got "
            f"down={down} up={up}"
        )
        with pytest.raises(ValueError) as from_spec:
            GovernorSpec("ondemand", up_threshold=up, down_threshold=down)
        assert str(from_spec.value) == message
        with pytest.raises(ValueError) as from_governor:
            OndemandGovernor(
                default_vf_table(), 2, up_threshold=up, down_threshold=down
            )
        assert str(from_governor.value) == message

    @pytest.mark.parametrize("up, down", [(1.0, 0.0), (0.01, 0.0)])
    def test_range_ends_are_accepted(self, up, down):
        spec = GovernorSpec("ondemand", up_threshold=up, down_threshold=down)
        governor = build_governor(spec, default_vf_table(), 2)
        assert (governor.up_threshold, governor.down_threshold) == (up, down)

    def test_memory_bound_steps_down_compute_bound_steps_up(self):
        table = default_vf_table()
        governor = build_governor(GovernorSpec("ondemand"), table, 2)
        governor.levels = [1, 1]
        # Core 0 is stalled 90% of the time -> step down; core 1 is
        # compute-bound (10% stalled) -> step up.
        governor.decide(
            [
                _telemetry(0, wall=1000, stall=900, level=1),
                _telemetry(1, wall=1000, stall=100, level=1),
            ]
        )
        assert governor.levels == [2, 0]

    def test_clamps_at_the_ladder_ends(self):
        table = default_vf_table()
        governor = build_governor(GovernorSpec("ondemand"), table, 2)
        governor.levels = [len(table) - 1, 0]
        governor.decide(
            [
                _telemetry(0, wall=1000, stall=1000, level=len(table) - 1),
                _telemetry(1, wall=1000, stall=0, level=0),
            ]
        )
        assert governor.levels == [len(table) - 1, 0]

    def test_inactive_cores_ignored(self):
        governor = build_governor(GovernorSpec("ondemand"), default_vf_table(), 1)
        governor.decide([_telemetry(0, wall=1000, stall=1000, active=False)])
        assert governor.levels == [0]


class TestCoordinatedGovernor:
    def test_qos_must_be_non_negative(self):
        with pytest.raises(ValueError, match="non-negative"):
            build_governor(
                GovernorSpec("coordinated", qos_slowdown=-0.1),
                default_vf_table(),
                2,
            )

    def test_spec_rejects_a_negative_budget(self):
        with pytest.raises(ValueError, match="qos_slowdown must be non-negative"):
            GovernorSpec("coordinated", qos_slowdown=-0.5)
        with pytest.raises(ValueError, match="qos_slowdown must be non-negative"):
            CoordinatedGovernor(default_vf_table(), 2, qos_slowdown=-0.5)

    @pytest.mark.parametrize("qos", [-0.5, -1e-9])
    def test_every_check_site_gives_one_message(self, qos):
        message = f"qos_slowdown must be non-negative, got {qos}"
        with pytest.raises(ValueError) as from_params:
            CoordinatedParams(qos_slowdown=qos)
        assert str(from_params.value) == message
        with pytest.raises(ValueError) as from_spec:
            GovernorSpec("coordinated", qos_slowdown=qos)
        assert str(from_spec.value) == message
        with pytest.raises(ValueError) as from_governor:
            CoordinatedGovernor(default_vf_table(), 2, qos_slowdown=qos)
        assert str(from_governor.value) == message

    def test_zero_budget_is_accepted(self):
        """A zero budget (no slowdown allowed) is the range's lower
        end, so it is valid."""
        governor = build_governor(
            GovernorSpec("coordinated", qos_slowdown=0.0), default_vf_table(), 2
        )
        assert governor.qos_slowdown == 0.0

    def test_memory_bound_core_scales_deepest(self):
        """A fully memory-bound core loses nothing to a slow clock, so
        any budget admits the slowest point; a fully compute-bound
        core's slowdown is the period ratio itself, so a 10% budget
        admits nothing below nominal."""
        table = default_vf_table()
        governor = build_governor(
            GovernorSpec("coordinated", qos_slowdown=0.10), table, 2
        )
        governor.decide(
            [
                _telemetry(0, wall=1000, stall=1000),
                _telemetry(1, wall=1000, stall=0),
            ]
        )
        assert governor.levels == [len(table) - 1, 0]

    def test_budget_selects_intermediate_level(self):
        """C = M = 500 at nominal: S(m) = 0.5·m + 0.5.  A 35% budget
        admits m ≤ 1.7, so 1200 MHz (m = 5/3, S ≈ 1.333) is the
        slowest compliant point while 800 MHz (m = 2.5, S = 1.75) is
        not; an 80% budget admits the whole ladder."""
        table = default_vf_table()
        governor = build_governor(
            GovernorSpec("coordinated", qos_slowdown=0.35), table, 1
        )
        governor.decide([_telemetry(0, wall=1000, stall=500)])
        assert governor.levels == [table.level_of(1200)]
        # An 80% budget admits even the slowest point (S(2.5) = 1.75).
        governor = build_governor(
            GovernorSpec("coordinated", qos_slowdown=0.80), table, 1
        )
        governor.decide([_telemetry(0, wall=1000, stall=500)])
        assert governor.levels == [table.level_of(800)]

    def test_accounts_for_current_multiplier(self):
        """Telemetry measured at a slow clock must be rescaled: the
        same machine state yields the same decision regardless of the
        level it was observed at."""
        table = default_vf_table()
        at_nominal = build_governor(
            GovernorSpec("coordinated", qos_slowdown=0.35), table, 1
        )
        at_nominal.decide([_telemetry(0, wall=1000, stall=500, level=0)])
        slow = table.level_of(800)  # multiplier 2.5
        at_slow = build_governor(
            GovernorSpec("coordinated", qos_slowdown=0.35), table, 1
        )
        # Same workload observed at 800 MHz: compute stretched 2.5x.
        at_slow.levels = [slow]
        at_slow.decide([_telemetry(0, wall=1750, stall=500, level=slow)])
        assert at_slow.levels == at_nominal.levels

    def test_no_data_keeps_current_level(self):
        governor = build_governor(
            GovernorSpec("coordinated"), default_vf_table(), 1
        )
        governor.levels = [2]
        governor.decide([_telemetry(0, wall=0, stall=0, level=2)])
        assert governor.levels == [2]
