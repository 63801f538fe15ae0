"""Golden corpus suite: one committed generator scenario, bit-pinned.

Companion to the static/scenario/DVFS golden suites: the fixture runs
a committed corpus scenario (the seed-zero two-core storm) through the
exact configuration the differential suite uses — cooperative
partitioning under the coordinated governor — and commits the complete
result.  Any drift in the generator's committed output, the corpus
loader, the scenario engine or the DVFS integration fails field by
field.

Regenerate (only for a deliberate model change) with
``python -m repro.bench.golden tests/golden/fixtures`` — the same
command that regenerates the other golden matrices.
"""

import json
from pathlib import Path

import pytest

from repro.bench.golden import (
    case_payload,
    corpus_golden_matrix,
    diff_payloads,
    run_corpus_golden_case,
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
@pytest.mark.parametrize("case", corpus_golden_matrix(), ids=_case_id)
def test_corpus_run_matches_fixture(case, engine):
    fixture_path = FIXTURES / case.filename
    assert fixture_path.exists(), (
        f"missing corpus fixture {fixture_path}; regenerate with "
        f"`python -m repro.bench.golden tests/golden/fixtures`"
    )
    expected = json.loads(fixture_path.read_text())
    actual = case_payload(case, run_corpus_golden_case(case, _RUNNERS[engine]))
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, (
        f"{case.name}: corpus-scenario output drifted in "
        f"{len(mismatches)} field(s):\n  " + "\n  ".join(mismatches[:20])
    )


def test_corpus_fixture_pins_the_interesting_dynamics():
    """The fixture must capture a genuinely eventful run: arrivals
    after cycle 0, at least one departure, and governor activity."""
    payload = json.loads(
        (FIXTURES / "corpus_storm_2c_s000_coordinated.json").read_text()
    )
    result = payload["result"]
    assert result["governor"] == "coordinated"
    timeline = result["timeline"]
    assert timeline, "corpus fixture has no timeline"
    events = [event for sample in timeline for event in sample["events"]]
    assert any(event.startswith("arrive:") for event in events)
    assert any(event.startswith("depart:") for event in events)
    # Static energy stays cumulative across the event schedule.
    series = [sample["static_energy_nj"] for sample in timeline]
    assert all(b >= a for a, b in zip(series, series[1:]))
