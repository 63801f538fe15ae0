"""The normalised tables of Figs. 5–10, on a tiny two-group grid."""

import pytest

from repro.experiment import Experiment
from repro.metrics.figures import METRICS, figure_tables
from repro.metrics.speedup import geometric_mean
from repro.sim.config import scaled_two_core
from repro.sim.runner import ExperimentRunner

CONFIG = scaled_two_core(refs_per_core=3_000)
GROUPS = ["G2-1", "G2-8"]
POLICIES = ("unmanaged", "fair_share", "cooperative")


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


@pytest.fixture(scope="module")
def results(runner):
    specs = Experiment.grid(CONFIG, GROUPS, list(POLICIES))
    return {spec: runner.run(spec) for spec in specs}


def test_every_group_has_the_baseline_at_exactly_one(runner, results):
    tables = figure_tables(runner, results, CONFIG, POLICIES, METRICS)
    assert list(tables) == list(METRICS)
    for table in tables.values():
        assert table.baseline == "fair_share"
        assert list(table.groups) == GROUPS
        assert all(row["fair_share"] == 1.0 for row in table.groups.values())
        assert table.average["fair_share"] == 1.0


def test_the_average_is_the_geometric_mean_of_the_group_rows(runner, results):
    for table in figure_tables(runner, results, CONFIG, POLICIES, METRICS).values():
        assert list(table.average) == list(POLICIES)
        for policy in POLICIES:
            assert table.average[policy] == geometric_mean(
                [table.groups[group][policy] for group in GROUPS]
            )
        assert table.rows() == [*table.groups.items(), ("AVG", table.average)]


def test_without_fair_share_the_first_policy_is_the_baseline(runner, results):
    subset = {spec: run for spec, run in results.items() if spec.policy_name != "fair_share"}
    policies = ("cooperative", "unmanaged")
    (table,) = figure_tables(runner, subset, CONFIG, policies, ["dynamic"]).values()
    assert table.baseline == "cooperative"
    assert table.title == "2-core dynamic energy per kilo-instruction (normalised to cooperative)"
    assert all(row["cooperative"] == 1.0 for row in table.groups.values())
