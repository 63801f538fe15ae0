"""Scenario timeline: mid-run consolidation (cores depart, ways gate).

The dynamic counterpart of the paper's static-energy figures: half the
cores drain mid-window and the gating schemes (Cooperative, Dynamic
CPE) power down the released capacity while UCP/Fair Share merely
re-target.  Prints each scheme's integrated static energy against its
own no-departure baseline and the cooperative powered-ways timeline —
the shape Figures 14-16 reason about.
"""

from conftest import print_table

from repro import Experiment
from repro.render import Column
from repro.scenarios import Scenario, consolidation_scenario, render_timeline
from repro.sim.runner import ALL_POLICIES

GROUP_BENCHMARKS = ("lbm", "libquantum", "gromacs", "mcf")  # G4-5


def test_scenario_consolidation_static_energy(benchmark, runner, four_core_config):
    config = four_core_config

    def sweep():
        static = Scenario.static(GROUP_BENCHMARKS, name="static-G4-5")
        probe = runner.run(
            Experiment.for_scenario(static, system=config, policy="cooperative")
        )
        window_start = probe.end_cycle - probe.window_cycles
        scenario = consolidation_scenario(
            GROUP_BENCHMARKS,
            depart_cores=[2, 3],
            depart_cycle=window_start + probe.window_cycles // 3,
            name="consolidate-G4-5",
        )
        table = {}
        for policy in ALL_POLICIES:
            run = runner.run(
                Experiment.for_scenario(scenario, system=config, policy=policy)
            )
            baseline = runner.run(
                Experiment.for_scenario(static, system=config, policy=policy)
            )
            table[policy] = (run, baseline)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "consolidation: integrated static energy vs no departure",
        [Column("scheme", "<14"), Column("static nJ", ">12", ",.0f"),
         Column("baseline", ">12", ",.0f"), Column("ratio", ">8", ".2f"),
         Column("min powered", ">13")],
        [
            (policy, run.static_energy_nj, baseline.static_energy_nj,
             run.static_energy_nj / baseline.static_energy_nj, run.min_powered_ways())
            for policy, (run, baseline) in table.items()
        ],
    )
    cooperative, cooperative_baseline = table["cooperative"]
    print("\ncooperative timeline:")
    print(render_timeline(cooperative.timeline, config.l2.ways))

    # The gating schemes must save static energy when cores leave...
    assert cooperative.static_energy_nj < cooperative_baseline.static_energy_nj
    assert cooperative.min_powered_ways() < config.l2.ways
    # ...while the non-gating schemes keep the full cache powered.
    ucp_run, _ = table["ucp"]
    assert ucp_run.min_powered_ways() == config.l2.ways
    # The departure edge itself is on the timeline.
    assert any(s.events for s in cooperative.timeline)
