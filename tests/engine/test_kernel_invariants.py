"""The row invariants both engines' cache state keeps.

``kernel.c`` and the Python engine both find a key in a row of ways by
its first match, so they agree by construction.  Every key is still
unique in its row, and the LRU order and the upkeep of the LLC's
``mapped`` column assume it:

* a private L1 set holds each valid tag at most once;
* a shared-LLC set's ``mapped`` column resolves a tag to at most one way;
* every UMON tag-directory stack is an LRU stack, distinct over
  ``[0, len)``.

LRU victims are strict-``<`` argmins, exact with or without ties, but
stamps are unique within a set as well (the per-set clock only moves
forward), which the LRU order of both engines assumes.  These tests
check all four at every epoch boundary and at the end of the run, on
every available engine, on runs that cover takeover, power gating,
arrivals and UCP migration, and check that the checker sees a planted
duplicate.
"""

import pytest

from repro.bench.golden import golden_matrix
from repro.cache.set_associative import NO_TAG
from repro.engine import COMPILED, PYTHON, available_engines
from repro.experiment import Experiment
from repro.scenarios.corpus import corpus_scenario
from repro.scenarios.generate import corpus_config
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator
from repro.workloads.groups import group_benchmarks

ENGINES = [e for e in (PYTHON, COMPILED) if e in available_engines()]

#: storm-4c-s003 under cooperative partitioning runs takeovers, gates
#: ways and warms arrivals; consolidation-4c-s000 is the UCP corpus run
#: with the most events in one span; storm-4c-s000 under fair share
#: refills many lines whose stale copy sits in a way its owner lost at
#: an arrival or departure, so a fill must take `mapped` off the old copy
CORPUS_CASES = (
    ("storm-4c-s003", "cooperative"),
    ("consolidation-4c-s000", "ucp"),
    ("storm-4c-s000", "fair_share"),
)

GOLDEN_CASE = next(c for c in golden_matrix() if c.name == "4c_base_cooperative")


def _repeats(name, column, ways, skip_invalid=True) -> list[str]:
    """One message per row of ``column`` (``ways`` keys each) holding a
    key twice; invalid (``NO_TAG``) entries repeat freely unless
    ``skip_invalid`` is off."""
    found = []
    for row_index in range(len(column) // ways):
        row = column[row_index * ways:(row_index + 1) * ways]
        keys = [key for key in row if not (skip_invalid and key == NO_TAG)]
        if len(set(keys)) != len(keys):
            found.append(f"{name} row {row_index}: {list(row)}")
    return found


def invariant_violations(sim) -> list[str]:
    """Every row of ``sim``'s caches and tag directories whose keys repeat."""
    found = []
    for core, l1 in enumerate(sim.l1):
        found += _repeats(f"L1[{core}] tags", l1.tags, l1.ways)
        found += _repeats(f"L1[{core}] stamps", l1.stamp, l1.ways, False)
    llc = sim.cache
    found += _repeats("LLC mapped", llc.mapped, llc.ways)
    found += _repeats("LLC stamps", llc.stamp, llc.ways, False)
    for core, monitor in enumerate(sim.monitors):
        atd = monitor.atd
        # one row per sampled set; entries past the stack's length are stale
        live = [
            tag if index % atd.ways < atd.lengths[index // atd.ways] else NO_TAG
            for index, tag in enumerate(atd.stacks)
        ]
        found += _repeats(f"ATD[{core}] stacks", live, atd.ways)
    return found


@pytest.fixture
def checks(monkeypatch):
    """Check the invariants at every epoch boundary and at the end of
    every simulator run; yields the number of checks of each kind."""
    counts = {"epochs": 0, "runs": 0}
    original_run = CMPSimulator.run

    def run(sim, engine=None):
        epoch = sim.policy.epoch

        def checked_epoch(now):
            assert invariant_violations(sim) == [], f"at cycle {now}"
            counts["epochs"] += 1
            return epoch(now)

        sim.policy.epoch = checked_epoch
        result = original_run(sim, engine)
        assert invariant_violations(sim) == [], "at the end of the run"
        counts["runs"] += 1
        return result

    monkeypatch.setattr(CMPSimulator, "run", run)
    yield counts


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("name,policy", CORPUS_CASES)
def test_corpus_runs_keep_rows_unique(name, policy, engine, checks, monkeypatch):
    monkeypatch.setenv("REPRO_ENGINE", engine)
    entry = corpus_scenario(name)
    ExperimentRunner().run(
        Experiment.for_scenario(
            entry.scenario, system=corpus_config(entry.n_cores), policy=policy
        )
    )
    assert checks["epochs"] > 1


@pytest.mark.parametrize("engine", ENGINES)
def test_golden_grid_case_keeps_rows_unique(engine, checks, monkeypatch):
    # the golden grid's runs end before their first epoch boundary, so
    # this case is checked once, on the final state
    monkeypatch.setenv("REPRO_ENGINE", engine)
    ExperimentRunner().run(
        Experiment(GOLDEN_CASE.group, GOLDEN_CASE.policy, GOLDEN_CASE.config())
    )
    assert checks["runs"] == 1


def _plant_l1_tag(sim):
    tags = sim.l1[1].tags
    tags[0] = tags[1] = 42


def _plant_mapped(sim):
    sim.cache.mapped[3] = sim.cache.mapped[5] = 42


def _plant_atd(sim):
    atd = sim.monitors[2].atd
    atd.stacks[0] = atd.stacks[1] = 42
    atd.lengths[0] = 2


def _plant_stamp(sim):
    sim.cache.stamp[1] = sim.cache.stamp[0]


@pytest.mark.parametrize("plant,message", [
    (_plant_l1_tag, "L1[1] tags row 0"),
    (_plant_mapped, "LLC mapped row 0"),
    (_plant_atd, "ATD[2] stacks row 0"),
    (_plant_stamp, "LLC stamps row 0"),
])
def test_checker_reports_a_planted_duplicate(plant, message):
    config = GOLDEN_CASE.config()
    runner = ExperimentRunner()
    traces = [runner.trace_for(b, config) for b in group_benchmarks(GOLDEN_CASE.group)]
    sim = CMPSimulator(config, traces, GOLDEN_CASE.policy)
    assert invariant_violations(sim) == []
    plant(sim)
    [violation] = invariant_violations(sim)
    assert violation.startswith(message + ":")
