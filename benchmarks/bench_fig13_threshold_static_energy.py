"""Figure 13: impact of the takeover threshold on static energy.

With T=0 the lookahead allocates every way (UCP semantics) and
nothing can be gated; raising T leaves weak-utility ways unallocated
and powered off, so static energy falls with T.
"""

from conftest import threshold_figure


def test_fig13_threshold_vs_static_energy(benchmark, runner, two_core_config, two_core_groups):
    averages = threshold_figure(
        benchmark, runner, two_core_config, two_core_groups,
        lambda spec, run: run.static_power_nw,
        "Figure 13: static energy vs takeover threshold (norm. to T=0)",
    )
    # T=0 can gate nothing; the paper's default already saves.
    assert averages[0.05] < 1.0
    # Static savings grow (weakly) with the threshold.
    assert averages[0.20] <= averages[0.05] + 0.03
