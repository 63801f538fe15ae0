"""Figure 7: static energy of the two-application workloads.

Unmanaged, Fair Share and UCP cannot gate ways (no way alignment), so
their static power ratio is 1.0; Cooperative Partitioning and Dynamic
CPE power off unallocated ways.  The paper reports CP at 75% on
average with up to 48% savings (G2-2) and zero savings where the
cache is fully used (G2-6/7/12).
"""

from conftest import scheme_figure


def test_fig07_static_energy_two_core(benchmark, runner, two_core_config, two_core_groups):
    figure = scheme_figure(
        benchmark, runner, two_core_config, two_core_groups, "static", "Figure 7"
    )
    table, average = figure.groups, figure.average
    # Non-gating schemes stay at 1.0 (within overhead noise).
    for policy in ("unmanaged", "ucp"):
        assert 0.98 < average[policy] < 1.02
    # Gating schemes save static energy on average...
    assert average["cooperative"] < 0.97
    # ...with the best groups saving substantially (paper: 48%).
    best = min(table[g]["cooperative"] for g in two_core_groups)
    assert best < 0.85
    # ...and fully-utilised groups saving nothing (paper: G2-6/7/12).
    worst = max(table[g]["cooperative"] for g in two_core_groups)
    assert worst > 0.95
