"""Golden DVFS suite: the pinned coordinated-governor run.

Companion to the static and scenario golden suites: one committed
fixture pins the complete result of the coordinated governor over
cooperative partitioning — per-core V/f trajectory, V²-scaled core
dynamic energy, V-scaled core leakage and the frequency/voltage
timeline — so any drift in the DVFS timing model, the governor's
slowdown prediction or the interval energy integration fails field by
field.

Regenerate (only for a deliberate model change) with
``python -m repro.bench.golden tests/golden/fixtures`` — the same
command that regenerates the static and scenario matrices.
"""

import json
from pathlib import Path

import pytest

from repro.bench.golden import (
    case_payload,
    diff_payloads,
    dvfs_golden_matrix,
    run_dvfs_golden_case,
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
@pytest.mark.parametrize("case", dvfs_golden_matrix(), ids=_case_id)
def test_dvfs_run_matches_fixture(case, engine):
    fixture_path = FIXTURES / case.filename
    assert fixture_path.exists(), (
        f"missing DVFS fixture {fixture_path}; regenerate with "
        f"`python -m repro.bench.golden tests/golden/fixtures`"
    )
    expected = json.loads(fixture_path.read_text())
    actual = case_payload(case, run_dvfs_golden_case(case, _RUNNERS[engine]))
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, (
        f"{case.name}: DVFS engine output drifted in "
        f"{len(mismatches)} field(s):\n  " + "\n  ".join(mismatches[:20])
    )


def test_dvfs_fixture_pins_scaling_and_core_energy():
    """The fixture must show actual DVFS behaviour, not the nominal
    degenerate path: a frequency below nominal and non-zero V/f-scaled
    core energy."""
    payload = json.loads(
        (FIXTURES / "dvfs_2c_coordinated_cooperative.json").read_text()
    )
    result = payload["result"]
    assert result["governor"] == "coordinated"
    assert result["core_dynamic_energy_nj"] > 0.0
    assert result["core_static_energy_nj"] > 0.0
    timeline = result["timeline"]
    assert timeline, "DVFS fixture has no timeline"
    frequencies = [sample["frequencies_mhz"] for sample in timeline]
    nominal = max(max(row) for row in frequencies)
    assert any(f < nominal for row in frequencies for f in row), (
        "the coordinated governor never scaled below nominal"
    )
    # Core energy accumulates monotonically along the timeline.
    series = [sample["core_energy_nj"] for sample in timeline]
    assert all(b >= a for a, b in zip(series, series[1:]))
