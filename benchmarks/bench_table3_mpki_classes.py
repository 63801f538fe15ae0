"""Table 3: MPKI classification of the 19 SPEC CPU2006 applications.

Runs every benchmark alone on the full (scaled) LLC, measures its
misses per kilo-instruction, and checks that each lands in the
High / Medium / Low class the paper reports.
"""

from conftest import print_table

from repro import Experiment
from repro.render import Column
from repro.workloads.profiles import BENCHMARK_PROFILES, classify_mpki


def test_table3_mpki_classification(benchmark, executor, two_core_config):
    def measure():
        results = executor.sweep(
            Experiment.alone_run(name, system=two_core_config)
            for name in sorted(BENCHMARK_PROFILES)
        )
        return {
            experiment.workload.name: result.mpki
            for experiment, result in results.items()
        }

    measured = benchmark.pedantic(measure, rounds=1, iterations=1)
    profiles = {name: BENCHMARK_PROFILES[name] for name in measured}
    mismatches = [
        name for name, mpki in measured.items() if classify_mpki(mpki) != profiles[name].mpki_class
    ]
    print_table(
        "Table 3: MPKI classification",
        [Column("benchmark", "<12"), Column("paper MPKI", ">12", ".2f"),
         Column("measured", ">12", ".2f"), Column("class", ">9"), Column("ok", ">5")],
        [
            (name, profiles[name].mpki, mpki, profiles[name].mpki_class.value,
             "BAD" if name in mismatches else "OK")
            for name, mpki in measured.items()
        ],
    )
    assert not mismatches, f"class mismatches: {mismatches}"
