"""Figure 11: impact of the takeover threshold on performance.

Sweeps T over the paper's values {0, 0.01, 0.05, 0.1, 0.2} on the
two-core workloads, normalising each group's weighted speedup to the
T=0 run.  The paper finds no loss up to T=0.05 and growing losses
beyond, which justifies its default of 0.05.
"""

from conftest import threshold_figure


def test_fig11_threshold_vs_performance(benchmark, executor, two_core_config, two_core_groups):
    averages = threshold_figure(
        benchmark, executor, two_core_config, two_core_groups,
        lambda spec, run: executor.runner.weighted_speedup_of(run, spec.system),
        "Figure 11: weighted speedup vs takeover threshold (norm. to T=0)",
    )
    # Small thresholds cost (almost) nothing.
    assert averages[0.01] > 0.95
    assert averages[0.05] > 0.93
    # Larger thresholds must not *help* performance on average.
    assert averages[0.20] <= averages[0.0] + 0.02
