"""Golden-equivalence suite: the optimised engine vs the seed engine.

The fixtures under ``fixtures/`` are complete, bit-exact
:class:`~repro.sim.stats.RunResult` serialisations generated from the
**pre-overhaul** engine (the seed implementation with per-access
dataclass allocations and list-backed cache sets).  Every test here
recomputes one matrix case — scheme x core count x LLC geometry — with
the current engine and diffs every field: per-core IPC inputs, hits,
misses, energy integrals, ways probed, transition statistics, flush
timelines and epoch curves.

A mismatch in any counter means the hot-path rewrite changed simulated
behaviour and must be treated as a bug (or, for a deliberate model
change, the fixtures regenerated via
``python -m repro.bench.golden tests/golden/fixtures`` with the change
called out in the PR).
"""

import json
from pathlib import Path

import pytest

from repro.bench.golden import (
    case_payload,
    diff_payloads,
    golden_matrix,
    run_golden_case,
)
from repro.engine import available_engines
from repro.sim.runner import ExperimentRunner

FIXTURES = Path(__file__).parent / "fixtures"

#: one runner per engine, shared across the matrix so traces and CPE
#: profiling runs are computed once per engine.  The runner caches
#: results by task key, and the key does not name the engine, so a
#: shared runner would hand one engine's result to the other.
_RUNNERS = {engine: ExperimentRunner(engine=engine) for engine in available_engines()}


def _case_id(case) -> str:
    return case.name


@pytest.mark.parametrize("engine", available_engines())
@pytest.mark.parametrize("case", golden_matrix(), ids=_case_id)
def test_engine_reproduces_seed_results(case, engine):
    fixture_path = FIXTURES / case.filename
    assert fixture_path.exists(), (
        f"missing golden fixture {fixture_path}; regenerate with "
        f"`python -m repro.bench.golden tests/golden/fixtures`"
    )
    expected = json.loads(fixture_path.read_text())
    actual = case_payload(case, run_golden_case(case, _RUNNERS[engine]))
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, (
        f"{case.name}: engine output drifted from the seed engine in "
        f"{len(mismatches)} field(s):\n  " + "\n  ".join(mismatches[:20])
    )


def test_matrix_covers_every_scheme_and_geometry():
    """The contract the issue requires: 5 schemes x {2,4} cores x 2 geometries."""
    cases = golden_matrix()
    assert len(cases) == 20
    assert {case.policy for case in cases} == {
        "unmanaged", "fair_share", "cpe", "ucp", "cooperative"
    }
    assert {case.cores for case in cases} == {2, 4}
    assert {case.geometry for case in cases} == {"base", "small"}
    # Every fixture the matrix names is committed.
    for case in cases:
        assert (FIXTURES / case.filename).exists()
