"""Figure 10: static energy of the four-application workloads.

Paper: CP averages 80% of Fair Share, with ~38% savings in groups
whose applications need few ways (G4-3/8/11) and no savings in the
five groups that use the whole cache.
"""

from conftest import scheme_figure


def test_fig10_static_energy_four_core(benchmark, runner, four_core_config, four_core_groups):
    figure = scheme_figure(
        benchmark, runner, four_core_config, four_core_groups, "static", "Figure 10"
    )
    table, average = figure.groups, figure.average
    for policy in ("unmanaged", "ucp"):
        assert 0.98 < average[policy] < 1.02
    assert average["cooperative"] < 0.98
    best = min(table[g]["cooperative"] for g in four_core_groups)
    assert best < 0.9
