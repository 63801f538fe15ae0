"""Figure 12: impact of the takeover threshold on dynamic energy.

Higher thresholds deny weak-utility ways, narrowing partitions and
shrinking the probe width: dynamic energy falls monotonically-ish as
T grows (normalised to T=0, so lower is better).
"""

from conftest import threshold_figure


def test_fig12_threshold_vs_dynamic_energy(benchmark, runner, two_core_config, two_core_groups):
    averages = threshold_figure(
        benchmark, runner, two_core_config, two_core_groups,
        lambda spec, run: run.dynamic_energy_per_kiloinstruction,
        "Figure 12: dynamic energy vs takeover threshold (norm. to T=0)",
    )
    # The paper's default threshold saves dynamic energy vs T=0.
    assert averages[0.05] < 1.0
    assert averages[0.20] <= averages[0.01] + 0.05
