"""Ablation: UMON dynamic set-sampling density.

UCP's claim (inherited by the paper) is that sampling a fraction of
sets barely degrades partitioning quality.  This ablation runs
Cooperative Partitioning with sampling intervals 1 (every set), 4 and
16, comparing weighted speedup and the energy outcome.
"""

from dataclasses import replace

from conftest import print_table

from repro import Experiment
from repro.render import Column

INTERVALS = (1, 4, 16)
GROUPS = ("G2-2", "G2-6", "G2-8")


def test_ablation_umon_sampling_interval(benchmark, runner, two_core_config, two_core_groups):
    groups = [g for g in two_core_groups if g in GROUPS] or two_core_groups[:2]

    def sweep():
        runner.sweep(
            Experiment(
                group, "cooperative", replace(two_core_config, umon_interval=interval)
            )
            for group in groups
            for interval in INTERVALS
        )
        rows = {}
        for interval in INTERVALS:
            config = replace(two_core_config, umon_interval=interval)
            ws_values = []
            probes = []
            for group in groups:
                run = runner.run(Experiment(group, "cooperative", config))
                ws_values.append(runner.weighted_speedup_of(run, config))
                probes.append(run.average_ways_probed)
            rows[interval] = (
                sum(ws_values) / len(ws_values),
                sum(probes) / len(probes),
            )
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: UMON sampling interval",
        [Column("interval", ">9"), Column("mean WS", ">10", ".3f"),
         Column("mean ways probed", ">18", ".2f")],
        [(interval, ws, probes) for interval, (ws, probes) in rows.items()],
    )
    full_ws = rows[1][0]
    sampled_ws = rows[16][0]
    # Sparse sampling tracks full monitoring within a few percent.
    assert sampled_ws > full_ws * 0.9
