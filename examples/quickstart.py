#!/usr/bin/env python3
"""Quickstart: run one workload group under Cooperative Partitioning.

Simulates the paper's G2-8 group (lbm + soplex — a streaming thrasher
next to a capacity-hungry solver) on the scaled two-core system under
Fair Share and Cooperative Partitioning, and prints the numbers the
paper's evaluation revolves around: weighted speedup, average tag ways
probed (dynamic energy), powered ways (static energy) and the
partitioning activity.

Run:  python examples/quickstart.py
"""

from repro import Experiment, SweepExecutor


def main() -> None:
    experiment = Experiment.two_core("G2-8", refs_per_core=60_000)
    config = experiment.system
    group = experiment.workload.name

    print(f"Simulating workload group {group} on: {config.l2.describe()}")
    print()

    # Disk-backed: results land in .repro/store (see `repro report`),
    # so re-running this script is a cache hit.
    with SweepExecutor() as executor:
        fair, cooperative = executor.sweep(
            [experiment.with_policy("fair_share"), experiment.with_policy("cooperative")]
        ).values()
    runner = executor.runner

    for run in (fair, cooperative):
        speedup = runner.weighted_speedup_of(run, config)
        print(f"--- {run.policy} ---")
        for core in run.cores:
            print(
                f"  {core.benchmark:<10} IPC={core.ipc:.3f} "
                f"LLC MPKI={core.mpki:.2f}"
            )
        print(f"  weighted speedup       : {speedup:.3f}")
        print(f"  avg tag ways probed    : {run.average_ways_probed:.2f}")
        print(f"  avg powered ways       : {run.average_active_ways:.2f}")
        print(f"  dynamic energy (nJ/ki) : {run.dynamic_energy_per_kiloinstruction:.2f}")
        print(f"  partitioning decisions : {run.policy_stats.decisions} "
              f"({run.policy_stats.repartitions} repartitions)")
        print()

    dyn_ratio = (
        cooperative.dynamic_energy_per_kiloinstruction
        / fair.dynamic_energy_per_kiloinstruction
    )
    stat_ratio = cooperative.static_power_nw / fair.static_power_nw
    print(
        f"Cooperative Partitioning vs Fair Share: "
        f"dynamic energy x{dyn_ratio:.2f}, static power x{stat_ratio:.2f}"
    )


if __name__ == "__main__":
    main()
