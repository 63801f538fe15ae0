"""Ablation: lazy cooperative takeover vs immediate flush (CPE-style).

A design-choice ablation.  Cooperative Partitioning
and Dynamic CPE make the same kind of way-aligned decisions, but CP
scrubs lazily (flush-on-access) while CPE stalls everything to flush
reassigned ways at once.  Comparing the two on the phase-heavy
workloads isolates the cost of immediate flushing.
"""

from conftest import print_table

from repro import Experiment
from repro.metrics.speedup import geometric_mean
from repro.render import Column

PHASE_HEAVY = ("G2-4", "G2-6", "G2-7", "G2-12", "G2-13")


def test_ablation_lazy_vs_immediate_flush(benchmark, runner, two_core_config, two_core_groups):
    groups = [g for g in two_core_groups if g in PHASE_HEAVY] or two_core_groups[:3]

    def sweep():
        results = runner.sweep(
            Experiment(group, policy, two_core_config)
            for group in groups
            for policy in ("cooperative", "cpe")
        )
        rows = {}
        for group in groups:
            cp = results[Experiment(group, "cooperative", two_core_config)]
            cpe = results[Experiment(group, "cpe", two_core_config)]
            rows[group] = {
                "cp_ws": runner.weighted_speedup_of(cp, two_core_config),
                "cpe_ws": runner.weighted_speedup_of(cpe, two_core_config),
                "cp_flushes": cp.policy_stats.transfer_flushes,
                "cpe_flushes": cpe.policy_stats.transfer_flushes,
            }
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Ablation: lazy takeover (CP) vs immediate flush (CPE)",
        [Column("group", "<8"), Column("CP WS", ">9", ".3f"), Column("CPE WS", ">9", ".3f"),
         Column("CP flushes", ">12"), Column("CPE flushes", ">13")],
        [(group, *row.values()) for group, row in rows.items()],
    )
    cp_mean = geometric_mean([max(rows[g]["cp_ws"], 1e-9) for g in rows])
    cpe_mean = geometric_mean([max(rows[g]["cpe_ws"], 1e-9) for g in rows])
    print(f"mean WS: CP={cp_mean:.3f} CPE={cpe_mean:.3f}")
    # Lazy flushing must not lose badly to the immediate variant on
    # phase-heavy workloads (the paper's Section 4 argument).
    assert cp_mean > cpe_mean * 0.9
