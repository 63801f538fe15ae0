"""Golden scenario-timeline suite: pinned time-varying schedules.

Companion to ``test_engine_equivalence.py``: three committed fixtures
pin the complete results of a departure, a late arrival and a phase
change — per-epoch timelines (active cores, allocations, powered ways,
integrated energy) included.  Any drift in the scenario engine's event
application, the policies' idle/active transitions or the energy
integration fails here field by field.

Regenerate (only for a deliberate model change) with
``python -m repro.bench.golden tests/golden/fixtures`` — the same
command that regenerates the static matrix.
"""

import json
from pathlib import Path

import pytest

from repro.bench.golden import (
    case_payload,
    diff_payloads,
    run_scenario_golden_case,
    scenario_golden_matrix,
)
from repro.engine import available_engines
from repro.sim.runner import ExperimentRunner

FIXTURES = Path(__file__).parent / "fixtures"

#: one runner per engine: the runner caches results by task key, and
#: the key does not name the engine, so a shared runner would hand one
#: engine's result to the other
_RUNNERS = {engine: ExperimentRunner(engine=engine) for engine in available_engines()}


def _case_id(case) -> str:
    return case.name


@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize("case", scenario_golden_matrix(), ids=_case_id)
def test_scenario_timeline_matches_fixture(case, engine):
    fixture_path = FIXTURES / case.filename
    assert fixture_path.exists(), (
        f"missing scenario fixture {fixture_path}; regenerate with "
        f"`python -m repro.bench.golden tests/golden/fixtures`"
    )
    expected = json.loads(fixture_path.read_text())
    actual = case_payload(case, run_scenario_golden_case(case, _RUNNERS[engine]))
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, (
        f"{case.name}: scenario engine output drifted in "
        f"{len(mismatches)} field(s):\n  " + "\n  ".join(mismatches[:20])
    )


def test_scenario_matrix_shape():
    """The issue's contract: 2-3 committed arrival/departure schedules."""
    cases = scenario_golden_matrix()
    assert len(cases) == 3
    assert {case.shape for case in cases} == {"depart", "arrive", "phase"}
    assert {case.cores for case in cases} == {2, 4}
    for case in cases:
        assert (FIXTURES / case.filename).exists()


def test_depart_fixture_pins_a_powered_ways_drop():
    """The departure fixture must actually show gating, not steady state."""
    payload = json.loads(
        (FIXTURES / "scn_2c_depart_cooperative.json").read_text()
    )
    timeline = payload["result"]["timeline"]
    assert timeline, "departure fixture has no timeline"
    powered = [sample["powered_ways"] for sample in timeline]
    assert min(powered) < powered[0]
    # Static energy is recorded cumulatively and never decreases.
    static = [sample["static_energy_nj"] for sample in timeline]
    assert all(b >= a for a, b in zip(static, static[1:]))
