"""Figure 15: cycles taken to transfer a way, CP vs UCP.

Cooperative takeover progresses on *every* donor or recipient access,
so a way migrates far faster than under UCP, where capacity only
moves when the recipient misses (the paper measures 10M vs 58M cycles
— about 5.8x).  Absolute cycle counts scale with our smaller
geometry; the benchmark checks the *ratio*.
"""

from conftest import print_table

from repro import Experiment
from repro.metrics.speedup import geometric_mean
from repro.render import Column


def test_fig15_way_transition_time(benchmark, runner, two_core_config, two_core_groups):
    def sweep():
        results = runner.sweep(
            Experiment(group, policy, two_core_config)
            for group in two_core_groups
            for policy in ("cooperative", "ucp")
        )
        table = {}
        for group in two_core_groups:
            cp = results[Experiment(group, "cooperative", two_core_config)]
            ucp = results[Experiment(group, "ucp", two_core_config)]
            # UCP migrations often outlive the run entirely, so compare
            # lower-bound means (completed + in-flight ages) for both.
            cp_cycles = cp.transition_cycles_lower_bound()
            ucp_cycles = ucp.transition_cycles_lower_bound()
            ucp_pending = len(ucp.policy_stats.pending_transition_ages)
            if cp_cycles and ucp_cycles:
                table[group] = (cp_cycles, ucp_cycles, ucp_pending)
        return table

    table = benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [(group, cp, ucp, ucp / cp, pending) for group, (cp, ucp, pending) in table.items()]
    print_table(
        "Figure 15: cycles to transfer a way",
        [Column("group", "<8"), Column("Cooperative", ">14", ".0f"),
         Column("UCP (>=)", ">14", ".0f"), Column("UCP/CP", ">9", ".2f"),
         Column("pending", ">9")],
        rows,
    )
    assert table, "no group produced transitions under both schemes"
    mean_ratio = geometric_mean([ratio for _, _, _, ratio, _ in rows])
    print(f"geometric-mean speed advantage of cooperative takeover: >= {mean_ratio:.1f}x "
          f"(paper: ~5.8x; UCP times are lower bounds)")
    # Cooperative takeover is decisively faster.
    assert mean_ratio > 1.3
