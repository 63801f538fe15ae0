#!/usr/bin/env python3
"""Scenario: consolidating four applications onto fewer cores mid-run.

The data-centre question behind the paper's energy story: four
applications share a 16-way LLC; halfway through the measured window
the load balancer drains two of them onto other machines.  What
happens to the cache?  Under Cooperative Partitioning the departing
cores' ways are flushed and power-gated on the spot, so the static
(leakage) energy drops immediately; Fair Share and UCP re-target the
survivors but keep every way powered.

This example builds the schedule with the scenario engine, runs it
under all five schemes and prints the per-epoch timeline (active
cores, way allocations, powered ways, integrated static energy) plus
the headline comparison against the no-departure baseline.

Run:  python examples/four_core_consolidation.py
"""

from repro import (
    ALL_POLICIES,
    Experiment,
    Scenario,
    SweepExecutor,
    consolidation_scenario,
    scaled_four_core,
)
from repro.scenarios import render_timeline


def main() -> None:
    config = scaled_four_core(refs_per_core=40_000)
    group_benchmarks = ("lbm", "libquantum", "gromacs", "mcf")  # G4-5
    static = Scenario.static(group_benchmarks, name="static-G4-5")

    def runs_of(scenario):
        return {
            policy: Experiment.for_scenario(scenario, system=config, policy=policy)
            for policy in ALL_POLICIES
        }

    with SweepExecutor() as executor:
        # Calibrate the departure to ~1/3 into the measured window using
        # the static baseline (cached in the store for later comparison).
        calibration = runs_of(static)["cooperative"]
        baseline = executor.sweep([calibration])[calibration]
        window_start = baseline.end_cycle - baseline.window_cycles
        depart_cycle = window_start + baseline.window_cycles // 3
        scenario = consolidation_scenario(
            group_benchmarks, depart_cores=[2, 3], depart_cycle=depart_cycle,
            name="consolidate-G4-5",
        )
        departing, static_runs = runs_of(scenario), runs_of(static)
        results = executor.sweep([*departing.values(), *static_runs.values()])

    print(f"Consolidating {', '.join(group_benchmarks)} on {config.l2.describe()}")
    print(f"cores 2 and 3 depart at cycle {depart_cycle:,}\n")

    print(
        f"{'scheme':<26}{'static nJ':>12}{'vs static':>11}"
        f"{'avg powered':>13}{'min powered':>13}{'dyn nJ/ki':>11}"
    )
    for policy in ALL_POLICIES:
        run = results[departing[policy]]
        static_run = results[static_runs[policy]]
        print(
            f"{run.policy:<26}"
            f"{run.static_energy_nj:>12,.0f}"
            f"{run.static_energy_nj / static_run.static_energy_nj:>10.2f}x"
            f"{run.average_active_ways:>13.1f}"
            f"{run.min_powered_ways():>13}"
            f"{run.dynamic_energy_per_kiloinstruction:>11.2f}"
        )
    print("(vs static = integrated static energy relative to the no-departure run)")

    cooperative = results[departing["cooperative"]]
    print("\nCooperative Partitioning timeline:")
    print(render_timeline(cooperative.timeline, config.l2.ways))
    print(
        f"\nafter the departure the LLC runs on "
        f"{cooperative.timeline[-1].powered_ways} of {config.l2.ways} ways; "
        f"{cooperative.policy_stats.transfer_flushes} lines were flushed to "
        f"hand capacity over"
    )


if __name__ == "__main__":
    main()
