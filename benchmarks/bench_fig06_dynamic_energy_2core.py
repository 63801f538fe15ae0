"""Figure 6: dynamic energy of the two-application workloads.

The paper's headline: Unmanaged and UCP probe every tag way, landing
at ~2x the Fair Share dynamic energy, while Cooperative Partitioning's
way-aligned probes average 2.9 ways and land at ~68% (Dynamic CPE at
~74%).  This benchmark regenerates the normalised series and checks
those orderings.
"""

from conftest import scheme_figure


def test_fig06_dynamic_energy_two_core(benchmark, runner, two_core_config, two_core_groups):
    figure = scheme_figure(
        benchmark, runner, two_core_config, two_core_groups, "dynamic", "Figure 6"
    )
    table, average = figure.groups, figure.average
    # Unmanaged/UCP ~ 2x Fair Share (all 8 ways probed vs 4).
    assert 1.6 < average["unmanaged"] < 2.2
    assert 1.6 < average["ucp"] < 2.2
    # Way-aligned schemes save dynamic energy on average.
    assert average["cooperative"] < 1.15
    assert average["cpe"] < 1.25
    # In the narrow-partition groups CP saves a lot (paper: up to 50%).
    best = min(table[g]["cooperative"] for g in two_core_groups)
    assert best < 0.85
