"""Shared infrastructure for the per-table/per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper at a
laptop-feasible scale and prints the same rows/series the paper
reports.  All benchmarks in a pytest session share one orchestrated
:class:`~repro.sim.runner.ExperimentRunner`: results persist in the
on-disk result store (so re-running any figure is a cache hit, even
across sessions) and the big sweeps fan out across worker processes.
``repro sweep``/``repro report`` read and write the same store, so a
figure can be pre-computed from the CLI and merely rendered here.

Environment knobs:

* ``REPRO_BENCH_REFS`` — references per core for two-core sweeps
  (default ``FIGURE_REFS_PER_CORE``; when set, the four-core sweeps
  use 5/6 of it).
* ``REPRO_BENCH_GROUPS`` — comma-separated subset of groups (e.g.
  ``G2-1,G2-8``) for quick runs; default is all fourteen.
* ``REPRO_STORE`` — result-store directory (default ``.repro/store``).
* ``REPRO_JOBS`` — worker processes for sweeps (default: CPU count).
"""

from __future__ import annotations

import os

import pytest

from repro import Experiment, PolicySpec
from repro.metrics.figures import FigureTable, figure_tables
from repro.orchestration import orchestrated_runner
from repro.render import Column, table
from repro.sim.config import FIGURE_REFS_PER_CORE, scaled_four_core, scaled_two_core
from repro.sim.runner import ALL_POLICIES
from repro.workloads.groups import group_names

_BENCH_REFS = os.environ.get("REPRO_BENCH_REFS")

#: the takeover thresholds Figs. 11–13 sweep
THRESHOLDS = (0.0, 0.01, 0.05, 0.10, 0.20)


def _selected_groups(n_cores: int) -> list[str]:
    requested = os.environ.get("REPRO_BENCH_GROUPS")
    names = group_names(n_cores)
    if not requested:
        return names
    chosen = [g.strip() for g in requested.split(",")]
    return [g for g in names if g in chosen] or names


@pytest.fixture(scope="session")
def runner():
    return orchestrated_runner()


@pytest.fixture(scope="session")
def two_core_config():
    refs = int(_BENCH_REFS) if _BENCH_REFS else FIGURE_REFS_PER_CORE[2]
    return scaled_two_core(refs_per_core=refs)


@pytest.fixture(scope="session")
def four_core_config():
    refs = int(_BENCH_REFS) * 5 // 6 if _BENCH_REFS else FIGURE_REFS_PER_CORE[4]
    return scaled_four_core(refs_per_core=refs)


@pytest.fixture(scope="session")
def two_core_groups():
    return _selected_groups(2)


@pytest.fixture(scope="session")
def four_core_groups():
    return _selected_groups(4)


def print_table(title: str, columns, rows) -> None:
    """Print one titled table through :func:`repro.render.table`."""
    print(f"\n=== {title} ===")
    print(table(columns, rows))


def scheme_figure(benchmark, runner, config, groups, metric: str, figure: str) -> FigureTable:
    """Sweep the (group × scheme) grid under ``benchmark``, then print
    and return its ``metric`` table, normalised to Fair Share."""
    def sweep():
        results = runner.sweep(Experiment.grid(config, groups, list(ALL_POLICIES)))
        return figure_tables(runner, results, config, ALL_POLICIES, (metric,))[metric]

    normalised = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print(f"\n=== {figure}: {normalised.title} ===")
    print(normalised.render())
    return normalised


def threshold_figure(benchmark, runner, config, groups, value, title: str) -> dict:
    """Sweep Cooperative Partitioning over :data:`THRESHOLDS` under
    ``benchmark``, normalise each group's ``value(spec, run)`` to its
    T=0 run, print the table with its arithmetic-mean AVG row and
    return that row, by threshold."""
    def sweep():
        grid = {
            (group, threshold): Experiment(
                group, PolicySpec("cooperative", threshold=threshold), config
            )
            for group in groups
            for threshold in THRESHOLDS
        }
        results = runner.sweep(grid.values())
        normalised = {}
        for group in groups:
            row = {t: value(grid[group, t], results[grid[group, t]]) for t in THRESHOLDS}
            normalised[group] = {t: row[t] / row[0.0] for t in THRESHOLDS}
        return normalised

    normalised = benchmark.pedantic(sweep, rounds=1, iterations=1)
    average = {
        t: sum(normalised[g][t] for g in normalised) / len(normalised) for t in THRESHOLDS
    }
    print_table(
        title,
        [Column("group", "<8"), *(Column(f"T={t}", ">10", ".3f") for t in THRESHOLDS)],
        [
            (group, *(row[t] for t in THRESHOLDS))
            for group, row in [*normalised.items(), ("AVG", average)]
        ],
    )
    return average
