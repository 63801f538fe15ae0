"""Workload spec generation: the only inputs the program under test sees.

Each workload is a list of :class:`repro.experiment.Experiment` specs
whose ``SystemConfig.seed`` is the benchmark's ``--seed``; everything
else about a spec is fixed by the workload name and size.  Alone-run
dependencies are not listed: the sweep executor adds them, exactly as
it does for a user's sweep.

Sizes: ``full`` is the benchmark proper; ``tiny`` is the smoke-test
scale (a few tasks per workload, a second or two per pass).
"""

from __future__ import annotations

import dataclasses
import json

#: the workload names, in the order BENCHMARK.json lists them
WORKLOADS = ("figs-cold", "scenario-dvfs", "threshold-grid")

SIZES = ("full", "tiny")

#: the program's own default seed (``SystemConfig.seed``)
DEFAULT_SEED = 2012


def _reseed(config, seed: int):
    """``config`` with the benchmark's seed: the one knob ``--seed`` sets."""
    return dataclasses.replace(config, seed=seed)


def _figs_cold(seed: int, size: str) -> list:
    """Fig. 5 + Fig. 8 grids at the CLI's default refs (60k / 50k)."""
    from repro.experiment import Experiment
    from repro.sim.config import scaled_four_core, scaled_two_core
    from repro.workloads.groups import group_names

    specs = []
    for factory, refs in ((scaled_two_core, 60_000), (scaled_four_core, 50_000)):
        config = factory(refs_per_core=refs)
        groups = group_names(config.n_cores)
        if size == "tiny":
            config = factory(refs_per_core=3_000)
            groups = groups[:1]
        specs += Experiment.grid(_reseed(config, seed), groups)
    return specs


def _scenario_dvfs(seed: int, size: str) -> list:
    """Every corpus scenario x {ucp, cooperative} x {none, coordinated}."""
    from repro.bench.differential import suite_config, suite_entries
    from repro.experiment import Experiment

    entries = suite_entries("full")
    if size == "tiny":
        entries = suite_entries("quick")[:2]
    return [
        Experiment.for_scenario(
            entry.scenario,
            system=_reseed(suite_config(entry), seed),
            policy=policy,
            governor=governor,
        )
        for entry in entries
        for policy in ("ucp", "cooperative")
        for governor in (None, "coordinated")
    ]


def _threshold_grid(seed: int, size: str) -> list:
    """The 107-task threshold sweep of ``repro bench --sweep``."""
    from repro.bench.sweep_throughput import sweep_workload

    specs = sweep_workload(quick=size == "tiny")
    if size == "tiny":
        specs = [spec.with_refs(3_000) for spec in specs[:10]]
    return [spec.with_system(_reseed(spec.system, seed)) for spec in specs]


_BUILDERS = {
    "figs-cold": _figs_cold,
    "scenario-dvfs": _scenario_dvfs,
    "threshold-grid": _threshold_grid,
}


def build(workload: str, seed: int, size: str = "full") -> list:
    """The workload's specs for ``seed`` (raises on an unknown name)."""
    if workload not in _BUILDERS:
        raise ValueError(
            f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}"
        )
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {', '.join(SIZES)}")
    return _BUILDERS[workload](seed, size)


def task_order(specs: list) -> list:
    """Every task a sweep of ``specs`` runs (alone dependencies first,
    each spec after its own), deduplicated by task key."""
    ordered = {}
    for spec in specs:
        for dependency in spec.alone_dependencies():
            ordered.setdefault(dependency.task_key(), dependency)
        ordered.setdefault(spec.task_key(), spec)
    return list(ordered.values())


def specs_document(specs: list) -> str:
    """The JSON list of ``Experiment.to_dict`` documents the driver loads."""
    return json.dumps([spec.to_dict() for spec in specs], sort_keys=True)

