#!/usr/bin/env python3
"""Scenario: choosing a QoS budget for a datacentre energy target.

Coordinated DVFS + cache partitioning (in the spirit of Nejat et
al.'s QoS-constrained coordinated management): the operator promises
each application "at most X% slower than full speed" and wants the
largest energy saving that keeps the promise.  This example sweeps
the coordinated governor's per-core slowdown budget over cooperative
partitioning, prints the energy/QoS frontier, and picks the tightest
budget that meets a 25% total-energy-saving target.

Run:  python examples/qos_energy.py
"""

from repro import Experiment, GovernorSpec, SweepExecutor, scaled_two_core

GROUPS = ("G2-1", "G2-8")
QOS_BUDGETS = (0.0, 0.02, 0.05, 0.10, 0.20, 0.40)
ENERGY_TARGET = 0.25  # fraction of the nominal-frequency total


def main() -> None:
    base = scaled_two_core(refs_per_core=50_000)

    # One spec per (group, budget) cell, plus the nominal-frequency
    # reference each group's slowdowns are measured against; one
    # parallel, cached fan-out for everything.
    nominal = {
        group: Experiment(group, "cooperative", base, governor=GovernorSpec("fixed"))
        for group in GROUPS
    }
    grid = {
        (group, budget): Experiment(
            group,
            "cooperative",
            base,
            governor=GovernorSpec("coordinated", qos_slowdown=budget),
        )
        for group in GROUPS
        for budget in QOS_BUDGETS
    }
    with SweepExecutor() as executor:
        results = executor.sweep([*nominal.values(), *grid.values()])

    print(
        f"{'budget':>8}{'total nJ':>14}{'saving':>9}{'worst slowdown':>16}"
        f"   (mean over {', '.join(GROUPS)})"
    )
    chosen = None
    for budget in QOS_BUDGETS:
        total = reference_total = 0.0
        worst = 1.0
        for group in GROUPS:
            reference = results[nominal[group]]
            run = results[grid[(group, budget)]]
            total += run.total_energy_nj
            reference_total += reference.total_energy_nj
            worst = max(
                worst,
                max(
                    governed.cycles / baseline.cycles
                    for governed, baseline in zip(run.cores, reference.cores)
                ),
            )
        saving = 1.0 - total / reference_total
        print(f"{budget:>8.2f}{total:>14,.0f}{saving:>9.1%}{worst:>16.3f}")
        if chosen is None and saving >= ENERGY_TARGET:
            chosen = budget
    print()
    if chosen is None:
        print(
            f"No budget reaches a {ENERGY_TARGET:.0%} saving — the V/f "
            f"ladder bottoms out first; raise the target or add lower "
            f"operating points."
        )
    else:
        print(
            f"Tightest QoS budget reaching a {ENERGY_TARGET:.0%} total-energy "
            f"saving: {chosen:.0%} slowdown allowance per core."
        )


if __name__ == "__main__":
    main()
