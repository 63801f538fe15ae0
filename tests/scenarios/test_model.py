"""Schedule-model validation and introspection."""

import pytest

from repro.orchestration.serialize import scenario_from_dict, scenario_to_dict
from repro.scenarios import (
    Scenario,
    arrival_scenario,
    consolidation_scenario,
    core_arrive,
    core_depart,
    phase_change,
    phased_scenario,
)


def test_static_scenario_shape():
    scenario = Scenario.static(["lbm", "soplex"])
    assert scenario.is_static
    assert scenario.dynamic_events() == ()
    assert scenario.arrival_benchmarks(2) == ["lbm", "soplex"]
    assert scenario.benchmarks_used() == ("lbm", "soplex")


def test_static_scenario_leaves_a_none_slot_empty():
    scenario = Scenario.static(["lbm", None, "soplex"])
    assert scenario.arrival_benchmarks(3) == ["lbm", None, "soplex"]
    assert [event.core for event in scenario.events] == [0, 2]


def test_events_sort_by_time():
    scenario = Scenario(
        name="x",
        events=(
            core_arrive(0, "lbm", 0),
            core_depart(0, 500),
            core_arrive(1, "soplex", 100),
        ),
    )
    assert [event.at_cycle for event in scenario.events] == [0, 100, 500]
    assert not scenario.is_static
    assert len(scenario.dynamic_events()) == 2


def test_depart_before_arrive_rejected():
    with pytest.raises(ValueError, match="must arrive before"):
        Scenario(name="bad", events=(core_depart(0, 10),))


def test_double_arrival_rejected():
    with pytest.raises(ValueError, match="arrives more than once"):
        Scenario(
            name="bad",
            events=(core_arrive(0, "lbm", 0), core_arrive(0, "milc", 50)),
        )


def test_events_after_departure_rejected():
    with pytest.raises(ValueError, match="after its departure"):
        Scenario(
            name="bad",
            events=(
                core_arrive(0, "lbm", 0),
                core_depart(0, 10),
                phase_change(0, "milc", 20),
            ),
        )


def test_empty_scenario_rejected():
    with pytest.raises(ValueError, match="no arrivals"):
        Scenario(name="bad", events=())


def test_event_field_validation():
    with pytest.raises(ValueError, match="carry no benchmark"):
        core_depart(0, 10).__class__("depart", 0, 10, "lbm")
    with pytest.raises(ValueError, match="need a benchmark"):
        core_arrive(0, "", 0)
    with pytest.raises(ValueError, match="unknown event kind"):
        core_arrive(0, "lbm", 0).__class__("teleport", 0, 0, "lbm")


def test_validate_rejects_out_of_range_cores():
    scenario = Scenario.static(["lbm", "soplex", "milc"])
    with pytest.raises(ValueError, match="2-core machine"):
        scenario.validate(2)
    scenario.validate(4)  # extra idle slots are fine


def test_presets():
    consolidation = consolidation_scenario(["a", "b", "c", "d"], [2, 3], 1000)
    departs = [e for e in consolidation.events if e.kind == "depart"]
    assert {e.core for e in departs} == {2, 3}
    assert all(e.at_cycle == 1000 for e in departs)

    arrival = arrival_scenario(["a", "b"], 1, 777)
    assert arrival.arrival_of(1).at_cycle == 777
    assert arrival.arrival_of(0).at_cycle == 0

    phased = phased_scenario(["a", "b"], 0, ["x", "y"], [10, 20])
    phases = [e for e in phased.events if e.kind == "phase"]
    assert [(e.benchmark, e.at_cycle) for e in phases] == [("x", 10), ("y", 20)]


def test_scenario_round_trips_through_json():
    scenario = consolidation_scenario(["lbm", "soplex"], [1], 123456, name="c")
    rebuilt = scenario_from_dict(scenario_to_dict(scenario))
    assert rebuilt == scenario
    assert hash(rebuilt) == hash(scenario)


@pytest.mark.parametrize(
    "document, message",
    [
        ([], "must be a JSON object"),
        ({"events": []}, r"missing field\(s\) name"),
        ({"name": "x"}, r"missing field\(s\) events"),
        ({"name": "x", "events": {}}, "'events' must be a list"),
        ({"name": "x", "events": [7]}, "event #0 must be an object"),
        ({"name": "x", "events": [
            {"kind": "arrive", "core": 0, "at_cycle": 0, "benchmark": "lbm"},
            {"kind": "depart", "core": 0},
        ]}, r"event #1 .* missing field\(s\) at_cycle"),
        ({"name": "x", "events": [{"kind": "arrive", "core": -1,
                                   "at_cycle": 0, "benchmark": "lbm"}]},
         "event #0 .* is invalid: core must be non-negative"),
    ],
)
def test_scenario_from_dict_names_what_is_wrong(document, message):
    with pytest.raises(ValueError, match=message):
        scenario_from_dict(document)


def test_scenarios_are_hashable_cache_keys():
    a = consolidation_scenario(["lbm", "soplex"], [1], 100)
    b = consolidation_scenario(["lbm", "soplex"], [1], 100)
    c = consolidation_scenario(["lbm", "soplex"], [1], 101)
    assert a == b and hash(a) == hash(b)
    assert a != c
