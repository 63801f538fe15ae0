"""The many-small-task threshold sweep used to time orchestration.

Where :mod:`repro.bench.harness` times the simulation *engine* (refs/s
of one big run), this workload exercises the *orchestration layer*:
per-task dispatch, worker start-up, store I/O and resume planning.
perfbench's ``threshold-grid`` workload runs it end to end and
compares two trees with an interleaved A/B (see
``perfbench/README.md``).

The workload is a threshold grid: (group × scheme × takeover
threshold) on short traces, plus the alone-run dependencies the
executor schedules implicitly — ~107 distinct task keys at full size,
each simulating for a few tens of milliseconds.  Per-task set-up
(trace generation, per-core trace views, runner construction) is
comparable to simulation time at this scale.  Every group's trace set
is shared by all 25 of its scheme × threshold tasks (the trace cache
key has no threshold in it), which is exactly the reuse a warm worker
banks.
"""

from __future__ import annotations

from repro.experiment import Experiment
from repro.sim.config import scaled_two_core


def sweep_workload(quick: bool = False) -> list[Experiment]:
    """The many-small-task spec list (alone dependencies *not*
    included — the executor adds those, as it would for a user sweep).

    Full size: 4 groups × 5 schemes × 5 thresholds = 100 group tasks,
    plus the member benchmarks' implicit alone runs (107 task keys
    total).  ``quick``: 2 × 5 × 3 = 30 group tasks on shorter traces.
    """
    from repro.sim.runner import ALL_POLICIES

    if quick:
        groups = ["G2-1", "G2-2"]
        policies = list(ALL_POLICIES)
        thresholds = [0.03, 0.07, 0.11]
        refs = 8_000
    else:
        groups = ["G2-1", "G2-2", "G2-3", "G2-4"]
        policies = list(ALL_POLICIES)
        thresholds = [0.02, 0.05, 0.08, 0.11, 0.14]
        refs = 30_000
    base = scaled_two_core(refs_per_core=refs)
    return [
        Experiment(group, policy, base.with_threshold(threshold))
        for threshold in thresholds
        for group in groups
        for policy in policies
    ]
