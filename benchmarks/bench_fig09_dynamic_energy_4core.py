"""Figure 9: dynamic energy of the four-application workloads.

Paper: Unmanaged/UCP at ~4x Fair Share (16 ways probed vs 4), CP at
69% (3.2 ways probed on average vs 4), CPE at 82%.
"""

from conftest import scheme_figure


def test_fig09_dynamic_energy_four_core(benchmark, runner, four_core_config, four_core_groups):
    figure = scheme_figure(
        benchmark, runner, four_core_config, four_core_groups, "dynamic", "Figure 9"
    )
    table, average = figure.groups, figure.average
    # All-way probers land near 4x the Fair Share probe width.
    assert 3.0 < average["unmanaged"] < 4.3
    assert 3.0 < average["ucp"] < 4.3
    # Way-aligned schemes save.
    assert average["cooperative"] < 1.3
    best = min(table[g]["cooperative"] for g in four_core_groups)
    assert best < 0.9
