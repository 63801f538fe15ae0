"""Figure 16: LLC-to-memory flush bandwidth after a partitioning decision.

Cooperative Partitioning flushes in a short early burst (takeover
scrubs every set quickly), while UCP dribbles writebacks for the whole
— much longer — transition, and flushes *more* lines overall (the
donor keeps re-dirtying blocks that have not migrated yet; paper:
5102 vs 6536 lines).  This benchmark prints both time series and the
total flushed lines.
"""

from repro import Experiment
from repro.render import Column, table


def test_fig16_flush_bandwidth_timeline(benchmark, runner, two_core_config, two_core_groups):
    horizon = 24  # buckets of flush_bucket_cycles after a decision

    def sweep():
        results = runner.sweep(
            Experiment(group, policy, two_core_config)
            for group in two_core_groups
            for policy in ("cooperative", "ucp")
        )
        series = {"cooperative": [0.0] * horizon, "ucp": [0.0] * horizon}
        totals = {"cooperative": 0, "ucp": 0}
        contributing = 0
        for group in two_core_groups:
            runs = {
                policy: results[Experiment(group, policy, two_core_config)]
                for policy in ("cooperative", "ucp")
            }
            if not any(r.policy_stats.repartitions for r in runs.values()):
                continue
            contributing += 1
            for policy, run in runs.items():
                for bucket, value in enumerate(run.policy_stats.flush_series(horizon)):
                    series[policy][bucket] += value
                totals[policy] += run.policy_stats.transfer_flushes
        return series, totals, contributing

    series, totals, contributing = benchmark.pedantic(sweep, rounds=1, iterations=1)
    bucket_cycles = two_core_config.flush_bucket_cycles
    print("\n=== Figure 16: lines flushed per bucket after a decision ===")
    print(f"(bucket = {bucket_cycles} cycles; summed over {contributing} groups)")
    print(table(
        [Column("bucket", ">7"), Column("Cooperative", ">14", ".1f"),
         Column("UCP", ">10", ".1f")],
        zip(range(horizon), series["cooperative"], series["ucp"]),
    ))
    print(f"total transfer flushes: CP={totals['cooperative']} UCP={totals['ucp']}")
    assert contributing, "no repartitions happened anywhere"
    cp = series["cooperative"]
    # CP's flushing is front-loaded: the first third of the horizon
    # carries most of its traffic.
    early = sum(cp[: horizon // 3])
    late = sum(cp[horizon // 3:])
    assert early >= late * 0.8
