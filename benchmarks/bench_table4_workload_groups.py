"""Table 4: workload groupings.

Prints the two-core and four-core groups and verifies the paper's
construction rules (every two-application group contains a High-MPKI
program; every four-application group also contains a Medium one).
"""

from conftest import print_table

from repro.render import Column
from repro.workloads.groups import FOUR_CORE_GROUPS, TWO_CORE_GROUPS
from repro.workloads.profiles import BENCHMARK_PROFILES, MPKIClass


def _build():
    return dict(TWO_CORE_GROUPS), dict(FOUR_CORE_GROUPS)


def test_table4_workload_groups(benchmark):
    two, four = benchmark.pedantic(_build, rounds=1, iterations=1)
    print_table(
        "Table 4: workload groupings",
        [Column("Group", "<7"), Column("Applications")],
        [(name, ", ".join(members)) for name, members in [*two.items(), *four.items()]],
    )
    for name, members in two.items():
        classes = {BENCHMARK_PROFILES[b].mpki_class for b in members}
        assert MPKIClass.HIGH in classes, name
    for name, members in four.items():
        classes = [BENCHMARK_PROFILES[b].mpki_class for b in members]
        assert MPKIClass.HIGH in classes, name
    assert len(two) == 14 and len(four) == 14
