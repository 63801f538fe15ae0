#!/usr/bin/env python3
"""Scenario: choosing the takeover threshold for an energy budget.

Section 5.1 of the paper sweeps the takeover threshold T and settles
on 0.05 as the best performance/energy trade-off.  This example
reproduces that engineering decision for a workload mix: it sweeps T,
prints the trade-off frontier, and picks the largest threshold whose
performance loss stays under 2%.

Run:  python examples/threshold_tradeoff.py
"""

from repro import Experiment, PolicySpec, SweepExecutor, scaled_two_core

GROUPS = ("G2-2", "G2-3", "G2-9")  # mixes with energy headroom
THRESHOLDS = (0.0, 0.01, 0.05, 0.10, 0.20)
ACCEPTABLE_SLOWDOWN = 0.02


def main() -> None:
    base = scaled_two_core(refs_per_core=50_000)

    # One spec per (group, T) cell — the threshold is a policy
    # parameter that folds into the system config — and one parallel,
    # cached fan-out over the whole grid; the loop below then only
    # reads results back.
    grid = {
        (group, threshold): Experiment(
            group, PolicySpec("cooperative", threshold=threshold), base
        )
        for group in GROUPS
        for threshold in THRESHOLDS
    }
    with SweepExecutor() as executor:
        results = executor.sweep(grid.values())
    runner = executor.runner
    frontier = {}
    for threshold in THRESHOLDS:
        ws, dyn, stat = 0.0, 0.0, 0.0
        for group in GROUPS:
            experiment = grid[(group, threshold)]
            run = results[experiment]
            ws += runner.weighted_speedup_of(run, experiment.system)
            dyn += run.dynamic_energy_per_kiloinstruction
            stat += run.static_power_nw
        frontier[threshold] = (ws / len(GROUPS), dyn / len(GROUPS), stat / len(GROUPS))

    base_ws, base_dyn, base_stat = frontier[0.0]
    print(f"{'T':>6}{'speedup':>10}{'dynamic':>10}{'static':>10}   (normalised to T=0)")
    chosen = 0.0
    for threshold, (ws, dyn, stat) in frontier.items():
        rel_ws = ws / base_ws
        print(
            f"{threshold:>6}{rel_ws:>10.3f}{dyn / base_dyn:>10.3f}"
            f"{stat / base_stat:>10.3f}"
        )
        if rel_ws >= 1.0 - ACCEPTABLE_SLOWDOWN:
            chosen = threshold
    print()
    print(
        f"Largest threshold within {ACCEPTABLE_SLOWDOWN:.0%} of T=0 performance: "
        f"T={chosen} (the paper selects 0.05)"
    )


if __name__ == "__main__":
    main()
