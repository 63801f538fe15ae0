"""Figure 5: weighted speedup of the two-application workloads.

Runs all five schemes over the G2-* groups and prints weighted
speedups normalised to Fair Share, as in the paper's bar chart.

Shape checks (see docs/reproducing-figures.md): the
partitioned schemes must never trail Fair Share badly, and Cooperative
Partitioning must track UCP closely (the paper reports 1.13 vs 1.14;
our synthetic traces compress the absolute speedups, so the check is
on the CP:UCP ratio rather than the absolute level).
"""

from conftest import scheme_figure

from repro.sim.runner import ALL_POLICIES


def test_fig05_weighted_speedup_two_core(benchmark, runner, two_core_config, two_core_groups):
    average = scheme_figure(
        benchmark, runner, two_core_config, two_core_groups, "speedup", "Figure 5"
    ).average
    assert average["fair_share"] == 1.0
    # CP within a few percent of UCP, as in the paper.
    assert average["cooperative"] > average["ucp"] - 0.08
    # No scheme collapses.
    for policy in ALL_POLICIES:
        assert average[policy] > 0.85
