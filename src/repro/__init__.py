"""repro — Cooperative Partitioning (HPCA 2012) reproduction library.

A from-scratch, pure-Python implementation of Sundararajan et al.,
"Cooperative Partitioning: Energy-Efficient Cache Partitioning for
High-Performance CMPs" (HPCA 2012), together with everything needed to
regenerate the paper's evaluation: a trace-driven CMP cache simulator,
UMON utility monitoring, a CACTI-like energy model, synthetic SPEC
CPU2006 workloads and the four comparison schemes.

Quickstart::

    from repro import Experiment, PolicySpec, SweepExecutor

    with SweepExecutor() as executor:  # disk-backed, parallel sweeps
        experiment = Experiment.two_core("G2-8").with_policy(
            PolicySpec("cooperative", threshold=0.1)
        )
        run = executor.sweep([experiment])[experiment]
    print(run.average_ways_probed, run.dynamic_energy_nj)

(``ExperimentRunner().run(experiment)`` runs one spec in this process
without the on-disk store; see ``docs/api.md`` for the spec model and
the policy plugin registry.)
The ``repro`` console script — ``python -m repro`` from a source
checkout — drives full figure sweeps from the shell::

    repro sweep --cores 2 --metric all

See ``README.md`` for the tour, ``examples/`` for complete scenarios
and ``benchmarks/`` for the per-figure reproduction harness.
"""

from repro.cache.geometry import CacheGeometry
from repro.core.policy import CooperativeParams, CooperativePartitioningPolicy
from repro.core.transfer import TransferPlan, plan_transfers
from repro.dvfs import (
    GOVERNOR_NAMES,
    BaseGovernor,
    CoreEnergyModel,
    GovernorSpec,
    OperatingPoint,
    VFTable,
    default_vf_table,
    governor_info,
    register_governor,
    registered_governors,
    unregister_governor,
)
from repro.energy.cacti import CactiEnergyModel, OverheadBits
from repro.experiment import Experiment, WorkloadSpec, by_group_policy
from repro.metrics.speedup import geometric_mean, normalize, weighted_speedup
from repro.orchestration import (
    ResultStore,
    SweepExecutor,
    default_store_path,
    task_key,
)
from repro.partitioning.lookahead import AllocationResult, lookahead_partition
from repro.partitioning.registry import (
    POLICY_NAMES,
    PolicySpec,
    build_policy,
    policy_info,
    register_policy,
    registered_policies,
    unregister_policy,
)
from repro.scenarios import (
    SCENARIO_SHAPES,
    Scenario,
    ScenarioEvent,
    TimelineSample,
    arrival_scenario,
    consolidation_scenario,
    core_arrive,
    core_depart,
    corpus_names,
    corpus_scenario,
    frequency_series,
    generate_scenario,
    load_corpus,
    phase_change,
    phased_scenario,
    voltage_series,
)
from repro.sim.config import (
    SystemConfig,
    paper_four_core,
    paper_two_core,
    scaled_four_core,
    scaled_two_core,
)
from repro.sim.runner import ALL_POLICIES, AloneResult, ExperimentRunner
from repro.sim.simulator import CMPSimulator
from repro.sim.stats import CoreResult, RunResult
from repro.workloads.groups import FOUR_CORE_GROUPS, TWO_CORE_GROUPS, group_benchmarks, group_names
from repro.workloads.profiles import BENCHMARK_PROFILES, MPKIClass, profile_for
from repro.workloads.trace import Trace, generate_trace

__version__ = "1.0.0"

__all__ = [
    "ALL_POLICIES",
    "AllocationResult",
    "AloneResult",
    "BENCHMARK_PROFILES",
    "BaseGovernor",
    "CMPSimulator",
    "CacheGeometry",
    "CactiEnergyModel",
    "CooperativeParams",
    "CooperativePartitioningPolicy",
    "CoreEnergyModel",
    "CoreResult",
    "Experiment",
    "ExperimentRunner",
    "FOUR_CORE_GROUPS",
    "GOVERNOR_NAMES",
    "GovernorSpec",
    "MPKIClass",
    "OperatingPoint",
    "OverheadBits",
    "POLICY_NAMES",
    "PolicySpec",
    "ResultStore",
    "RunResult",
    "SCENARIO_SHAPES",
    "Scenario",
    "ScenarioEvent",
    "SweepExecutor",
    "SystemConfig",
    "TWO_CORE_GROUPS",
    "TimelineSample",
    "Trace",
    "TransferPlan",
    "VFTable",
    "WorkloadSpec",
    "arrival_scenario",
    "build_policy",
    "by_group_policy",
    "consolidation_scenario",
    "core_arrive",
    "core_depart",
    "corpus_names",
    "corpus_scenario",
    "default_store_path",
    "default_vf_table",
    "frequency_series",
    "generate_scenario",
    "generate_trace",
    "geometric_mean",
    "governor_info",
    "group_benchmarks",
    "group_names",
    "load_corpus",
    "lookahead_partition",
    "normalize",
    "paper_four_core",
    "paper_two_core",
    "phase_change",
    "phased_scenario",
    "plan_transfers",
    "policy_info",
    "profile_for",
    "register_governor",
    "register_policy",
    "registered_governors",
    "registered_policies",
    "scaled_four_core",
    "scaled_two_core",
    "task_key",
    "unregister_governor",
    "unregister_policy",
    "voltage_series",
    "weighted_speedup",
]
