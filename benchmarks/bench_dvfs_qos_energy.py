"""DVFS energy-vs-QoS-target curve under the coordinated governor.

The central trade-off of Nejat et al.'s QoS-constrained DVFS: the
looser the per-core slowdown budget, the deeper the governor scales
V/f and the less total energy (LLC + core) the run costs.  This
driver sweeps the ``qos_slowdown`` budget over cooperative
partitioning and prints the resulting energy/performance curve —
total energy must fall monotonically as the budget loosens, and every
point must honour its own QoS contract (measured slowdown against the
same policy at the nominal frequency stays within budget, plus a
small tolerance for the governor's analytic model).
"""

from conftest import print_table

from repro import Experiment, GovernorSpec
from repro.render import Column

#: the slowdown budgets swept, tightest first
QOS_BUDGETS = (0.0, 0.02, 0.05, 0.10, 0.20, 0.40)

#: slack allowed between the governor's predicted slowdown and the
#: measured one (the per-epoch model extrapolates between intervals)
MODEL_TOLERANCE = 0.02

GROUP = "G2-8"


def test_dvfs_qos_energy_curve(benchmark, runner, two_core_config):
    config = two_core_config

    def sweep():
        nominal = runner.run(
            Experiment(GROUP, "cooperative", config, governor=GovernorSpec("fixed"))
        )
        rows = []
        for budget in QOS_BUDGETS:
            run = runner.run(
                Experiment(
                    GROUP,
                    "cooperative",
                    config,
                    governor=GovernorSpec("coordinated", qos_slowdown=budget),
                )
            )
            worst = max(
                governed.cycles / reference.cycles
                for governed, reference in zip(run.cores, nominal.cores)
            )
            rows.append((budget, run, worst))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        f"{GROUP}: energy vs QoS budget (coordinated over cooperative)",
        [Column("budget", ">8", ".2f"), Column("total nJ", ">14", ",.0f"),
         Column("core nJ", ">14", ",.0f"), Column("LLC nJ", ">12", ",.0f"),
         Column("worst slowdown", ">16", ".3f")],
        [
            (budget, run.total_energy_nj, run.core_energy_nj,
             run.dynamic_energy_nj + run.static_energy_nj, worst)
            for budget, run, worst in rows
        ],
    )

    # Loosening the QoS budget never costs energy...
    totals = [run.total_energy_nj for _, run, _ in rows]
    assert all(b <= a + 1e-9 for a, b in zip(totals, totals[1:])), totals
    # ...the loosest budget actually saves something...
    assert totals[-1] < totals[0]
    # ...and every point honours its own QoS contract.
    for budget, _, worst in rows:
        assert worst <= 1.0 + budget + MODEL_TOLERANCE, (budget, worst)
