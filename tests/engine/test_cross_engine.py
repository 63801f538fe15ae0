"""Cross-engine equivalence on the committed scenario corpus.

The golden suites pin the *current default* engine against committed
fixtures; this suite pins the engines against **each other** on live
corpus schedules with governors.  Every engine available on this
machine must reproduce the pure-Python reference RunResult
bit-for-bit — per-core counters, energy integrals, flush timelines,
V/f trajectories and the full per-epoch timeline included.  Group
runs on two cache geometries that no shipped config uses check the
kernel's generic way counts the same way.  A machine without a C
toolchain simply has fewer engines to compare (and the suite still
proves the python fallback runs the corpus).
"""

import dataclasses

import pytest

from repro.bench.golden import diff_payloads
from repro.cache.geometry import CacheGeometry
from repro.engine import PYTHON, available_engines
from repro.experiment import Experiment
from repro.orchestration.serialize import run_result_to_dict
from repro.scenarios.corpus import corpus_scenario
from repro.scenarios.generate import corpus_config
from repro.sim.config import scaled_four_core, scaled_two_core
from repro.sim.runner import ALL_POLICIES, ExperimentRunner

#: (corpus scenario, policy, governor): every corpus shape, both core
#: counts, the hook-bearing schemes (takeover, UCP migration, CPE) and
#: every governor kind — the configurations where an engine's policy
#: modelling could plausibly diverge.
SAMPLE = [
    ("storm-2c-s000", "cooperative", "coordinated"),
    ("consolidation-2c-s001", "ucp", None),
    ("churn-4c-s002", "cooperative", "ondemand"),
    ("diurnal-2c-s003", "fair_share", "fixed"),
    ("sparse-4c-s004", "cpe", None),
]

_OTHER_ENGINES = [name for name in available_engines() if name != PYTHON]


def _case_id(case) -> str:
    name, policy, governor = case
    return f"{name}-{policy}" + (f"-{governor}" if governor else "")


def _run(case, engine, monkeypatch) -> dict:
    """Run one sampled corpus cell on ``engine``; serialized result.

    A fresh runner per call: the runner memoises results by spec, and
    a cache hit would silently compare an engine against itself.
    """
    name, policy, governor = case
    monkeypatch.setenv("REPRO_ENGINE", engine)
    entry = corpus_scenario(name)
    runner = ExperimentRunner()
    result = runner.run(
        Experiment.for_scenario(
            entry.scenario,
            system=corpus_config(entry.n_cores),
            policy=policy,
            governor=governor,
        )
    )
    return run_result_to_dict(result)


@pytest.fixture(scope="module")
def references():
    """The pure-Python serialisations, computed once per module."""
    cache: dict = {}

    def get(case, monkeypatch) -> dict:
        key = _case_id(case)
        if key not in cache:
            cache[key] = _run(case, PYTHON, monkeypatch)
        return cache[key]

    return get


@pytest.mark.parametrize("engine", _OTHER_ENGINES or [PYTHON])
@pytest.mark.parametrize("case", SAMPLE, ids=_case_id)
def test_engines_reproduce_python_bit_for_bit(
    case, engine, references, monkeypatch
):
    expected = references(case, monkeypatch)
    actual = _run(case, engine, monkeypatch)
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, (
        f"{_case_id(case)}: engine {engine!r} diverged from the python "
        f"reference in {len(mismatches)} field(s):\n  "
        + "\n  ".join(mismatches[:20])
    )


def test_timelines_are_part_of_the_comparison(references, monkeypatch):
    """Guard the guard: the serialisation being diffed must actually
    carry the per-epoch timeline (a schema change that dropped it
    would quietly gut this suite)."""
    payload = references(SAMPLE[0], monkeypatch)
    assert payload["timeline"], "corpus scenario serialised no timeline"


#: (group, config factory, L1 ways, LLC ways): geometries the kernel
#: has no constant-way instance for (those are 8 or 16 LLC ways over 4
#: L1 ways), so its loop runs with the context's way counts.
GENERIC_GEOMETRIES = [
    ("G2-5", scaled_two_core, 8, 12),
    ("G4-1", scaled_four_core, 2, 4),
]


def _generic_case_id(case) -> str:
    group, _factory, l1_ways, llc_ways = case
    return f"{group}-l1x{l1_ways}-llcx{llc_ways}"


def _run_generic(case, policy, engine) -> dict:
    group, factory, l1_ways, llc_ways = case
    config = dataclasses.replace(
        factory(refs_per_core=6_000),
        l1=CacheGeometry(4 * 1024, 64, l1_ways),
        l2=CacheGeometry(256 * llc_ways * 64, 64, llc_ways),
    )
    runner = ExperimentRunner(engine=engine)
    return run_result_to_dict(runner.run(Experiment(group, policy, config)))


@pytest.mark.parametrize("engine", _OTHER_ENGINES or [PYTHON])
@pytest.mark.parametrize("policy", ALL_POLICIES)
@pytest.mark.parametrize("case", GENERIC_GEOMETRIES, ids=_generic_case_id)
def test_engines_agree_off_the_shipped_geometries(case, policy, engine):
    expected = _run_generic(case, policy, PYTHON)
    actual = _run_generic(case, policy, engine)
    mismatches = diff_payloads(expected, actual)
    assert not mismatches, (
        f"{_generic_case_id(case)} {policy}: engine {engine!r} diverged from "
        f"the python reference in {len(mismatches)} field(s):\n  "
        + "\n  ".join(mismatches[:20])
    )
