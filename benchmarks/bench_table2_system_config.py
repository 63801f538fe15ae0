"""Table 2: system configuration.

Prints the simulated machine descriptions (paper-scale and the scaled
variants the other benchmarks run on) so a reader can compare them
against the paper's Table 2 directly.
"""

from conftest import print_table

from repro.render import Column
from repro.sim.config import (
    paper_four_core,
    paper_two_core,
    scaled_four_core,
    scaled_two_core,
)


def _describe_all():
    return {
        "paper two-core": paper_two_core().describe(),
        "paper four-core": paper_four_core().describe(),
        "scaled two-core": scaled_two_core().describe(),
        "scaled four-core": scaled_four_core().describe(),
    }


def test_table2_system_configuration(benchmark):
    tables = benchmark.pedantic(_describe_all, rounds=1, iterations=1)
    for label, rows in tables.items():
        print_table(
            f"Table 2 ({label})", [Column("Parameter", "<22"), Column("Configuration")], rows
        )
    paper = dict(tables["paper two-core"])
    assert "2MB" in paper["Shared L2"]
    assert "8-way" in paper["Shared L2"]
    paper4 = dict(tables["paper four-core"])
    assert "4MB" in paper4["Shared L2"]
    assert "16-way" in paper4["Shared L2"]
