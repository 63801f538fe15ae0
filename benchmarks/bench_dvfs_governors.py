"""Governor comparison: fixed ladder vs ondemand vs coordinated.

Sweeps every fixed operating point plus the two dynamic governors
over cooperative partitioning and prints the energy/performance
frontier.  The fixed ladder brackets the design space (nominal = most
energy / fastest, slowest point = least energy / slowest); the
dynamic governors must land *inside* it, and the coordinated governor
must respect its QoS contract — which the open-loop fixed ladder by
construction cannot promise.
"""

from conftest import print_table

from repro import Experiment, GovernorSpec, default_vf_table
from repro.render import Column

GROUP = "G2-8"

QOS_BUDGET = 0.10
MODEL_TOLERANCE = 0.02


def test_dvfs_governor_comparison(benchmark, runner, two_core_config):
    config = two_core_config
    table = default_vf_table()

    def sweep():
        specs = {
            f"fixed-{point.freq_mhz}": GovernorSpec("fixed", freq_mhz=point.freq_mhz)
            for point in table.points
        }
        specs["ondemand"] = GovernorSpec("ondemand")
        specs["coordinated"] = GovernorSpec(
            "coordinated", qos_slowdown=QOS_BUDGET
        )
        return {
            label: runner.run(
                Experiment(GROUP, "cooperative", config, governor=spec)
            )
            for label, spec in specs.items()
        }

    runs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    nominal = runs[f"fixed-{table.nominal.freq_mhz}"]
    slowdowns = {
        label: max(
            governed.cycles / reference.cycles
            for governed, reference in zip(run.cores, nominal.cores)
        )
        for label, run in runs.items()
    }
    print_table(
        f"{GROUP}: governors over cooperative partitioning",
        [Column("governor", "<16"), Column("total nJ", ">14", ",.0f"),
         Column("core nJ", ">14", ",.0f"), Column("worst slowdown", ">16", ".3f")],
        [
            (label, run.total_energy_nj, run.core_energy_nj, slowdowns[label])
            for label, run in runs.items()
        ],
    )

    slowest = runs[f"fixed-{table.points[-1].freq_mhz}"]
    # The fixed ladder brackets the space: nominal spends the most,
    # the slowest point the least.
    assert slowest.total_energy_nj < nominal.total_energy_nj
    for label in ("ondemand", "coordinated"):
        assert runs[label].total_energy_nj < nominal.total_energy_nj, label
        assert runs[label].total_energy_nj >= slowest.total_energy_nj, label
    # Only the coordinated governor carries a QoS contract — and meets it.
    assert slowdowns["coordinated"] <= 1.0 + QOS_BUDGET + MODEL_TOLERANCE
    # The timeline records the V/f trajectory the governor drove.
    assert runs["coordinated"].frequency_series(), "no frequency series recorded"
