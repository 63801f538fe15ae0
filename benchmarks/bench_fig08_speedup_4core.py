"""Figure 8: weighted speedup of the four-application workloads.

The four-core headline is Dynamic CPE's collapse: frequent
repartitioning means flush volume scales with the number of
applications ("Dynamic CPE is not scalable across a large number of
cores"), while UCP and Cooperative Partitioning stay close together.
"""

from conftest import scheme_figure


def test_fig08_weighted_speedup_four_core(benchmark, runner, four_core_config, four_core_groups):
    average = scheme_figure(
        benchmark, runner, four_core_config, four_core_groups, "speedup", "Figure 8"
    ).average
    assert average["fair_share"] == 1.0
    assert average["cooperative"] > average["ucp"] - 0.08
    assert average["cooperative"] >= average["cpe"] - 0.05
