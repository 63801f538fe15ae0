"""The normalised tables of the paper's Figs. 5–10.

Each table holds one metric of a (group × scheme) grid: every group's
weighted speedup, dynamic energy or static power divided by the
baseline scheme's, and the geometric-mean AVG row the paper's bar
charts end with.  ``repro sweep``/``repro report`` and the figure
drivers in ``benchmarks/`` all build and print their tables here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.experiment import Experiment, by_group_policy
from repro.metrics.speedup import geometric_mean
from repro.render import Column, table
from repro.sim.config import SystemConfig

#: the three normalised tables the figures are built from, by title
METRICS = {
    "speedup": "weighted speedup",
    "dynamic": "dynamic energy per kilo-instruction",
    "static": "static leakage power",
}


@dataclass(frozen=True)
class FigureTable:
    """One metric's table: ``groups`` maps each group to its schemes'
    values over ``baseline``'s, and ``average`` is their geometric
    mean per scheme, in column order."""

    title: str
    baseline: str
    groups: dict[str, dict[str, float]]
    average: dict[str, float]

    def rows(self) -> list[tuple[str, dict[str, float]]]:
        """The group rows, then the AVG row."""
        return [*self.groups.items(), ("AVG", self.average)]

    def render(self) -> str:
        """The table without its title: a column per scheme."""
        columns = [Column("group", "<8"), *(Column(p, ">14", ".3f") for p in self.average)]
        return table(columns, [
            (group, *(row[p] for p in self.average)) for group, row in self.rows()
        ])


def figure_tables(
    runner: Any,
    results: dict[Experiment, Any],
    config: SystemConfig,
    policies: Sequence[str],
    metrics: Iterable[str],
) -> dict[str, FigureTable]:
    """The ``metrics`` tables of a grid's ``results`` (spec → run),
    normalised to Fair Share, or to the first of ``policies`` when
    Fair Share is not among them."""
    grid = by_group_policy(results)
    baseline = "fair_share" if "fair_share" in policies else policies[0]
    tables = {}
    for metric in metrics:
        if metric == "speedup":
            groups = runner.normalized_weighted_speedup(grid, config, baseline)
        else:
            groups = runner.normalized_energy(grid, metric, baseline)
        tables[metric] = FigureTable(
            title=f"{config.n_cores}-core {METRICS[metric]} (normalised to {baseline})",
            baseline=baseline,
            groups=groups,
            average={
                policy: geometric_mean([groups[group][policy] for group in groups])
                for policy in policies
            },
        )
    return tables
