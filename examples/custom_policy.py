#!/usr/bin/env python3
"""Scenario: prototyping a new partitioning policy against the suite.

The library's policy interface is small enough to drop in research
ideas: a policy declares each core's probe and fill ways with
``self._set_core_ways(core, probe, fill)`` (in ``__init__``, or in the
epoch-boundary ``decide`` to repartition) and may pick its own victim.
The way restrictions are data, like the paper's per-core RAP/WAP
registers, so a policy that only restricts ways runs on the C kernel.
This example implements *Static Priority Partitioning* — a QoS-style
scheme that pins 6 of 8 ways to a designated high-priority core — and
races it against the built-in schemes on a two-application mix.

Third-party policies are first-class citizens: the
``@register_policy`` decorator plugs the class into the policy
registry with a typed parameter dataclass, after which it is
addressable by a ``PolicySpec`` and runs through exactly the same
``SweepExecutor.sweep`` path (and on-disk result store) as the
built-ins — no hand-driven simulator plumbing.  A policy registered
in a script's ``__main__`` cannot be rebuilt in a worker process, so
the executor runs those specs in the parent.

Run:  python examples/custom_policy.py
"""

from dataclasses import dataclass

from repro import Experiment, PolicySpec, SweepExecutor, register_policy, scaled_two_core
from repro.partitioning.base import BaseSharedCachePolicy


@dataclass(frozen=True)
class StaticPriorityParams:
    """Which core gets pinned capacity, and how much of it."""

    priority_core: int = 0
    priority_ways: int = 6


@register_policy("static_priority", params=StaticPriorityParams)
class StaticPriorityPolicy(BaseSharedCachePolicy):
    """Way-aligned static partition favouring one core (QoS pinning)."""

    name = "Static Priority (6/2)"
    needs_monitors = False

    def __init__(self, *args, priority_core: int = 0, priority_ways: int = 6, **kwargs):
        super().__init__(*args, **kwargs)
        ways = self.geometry.ways
        for core in range(self.n_cores):
            block = (
                tuple(range(priority_ways)) if core == priority_core
                else tuple(range(priority_ways, ways))
            )
            # Probe and fill the same ways: a way-aligned partition.
            self._set_core_ways(core, block, block)


def main() -> None:
    config = scaled_two_core(refs_per_core=50_000)
    group = "G2-12"  # soplex (streaming) + gcc (capacity-hungry)
    benchmarks = ("soplex", "gcc")

    print(f"Group {group}: {', '.join(benchmarks)} — gcc is the priority app")
    print()

    # One spec per contender; the custom policy rides the identical
    # run path (and result store) as the built-ins.
    experiments = [
        Experiment(group, policy, config)
        for policy in ("fair_share", "ucp", "cooperative")
    ]
    experiments.append(
        Experiment(
            group,
            PolicySpec("static_priority", priority_core=1),  # gcc
            config,
        )
    )
    with SweepExecutor() as executor:
        results = executor.sweep(experiments)
    runner = executor.runner

    print(f"{'scheme':<26}{'weighted speedup':>17}{'gcc IPC':>9}{'ways probed':>13}")
    for run in results.values():
        speedup = runner.weighted_speedup_of(run, config)
        gcc_ipc = run.cores[1].ipc
        print(
            f"{run.policy:<26}{speedup:>17.3f}{gcc_ipc:>9.3f}"
            f"{run.average_ways_probed:>13.2f}"
        )
    print()
    print("The pinned partition boosts gcc at soplex's expense; the dynamic")
    print("schemes find a similar split automatically when it is worthwhile.")


if __name__ == "__main__":
    main()
