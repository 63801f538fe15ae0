"""Public-API surface snapshot: a committed contract against drift.

The redesign around :class:`~repro.experiment.Experiment` made the
public surface small and deliberate; this module keeps it that way.
:func:`compute_surface` flattens the API into a plain JSON document —
``repro.__all__``, the spec/builder/runner signatures and the policy
registry (names, display names, typed parameters) — and the committed
snapshot at ``tests/api_surface.json`` is compared against it by the
test suite and the CI ``api-surface`` job, so any *accidental* change
to the surface fails loudly.

Deliberate changes regenerate the snapshot::

    PYTHONPATH=src python -m repro.bench.api_surface

and ``--check`` compares without writing (the CI mode)::

    PYTHONPATH=src python -m repro.bench.api_surface --check

Only names, parameter lists, defaults and declared param types are
recorded — not docstrings or behaviour — so the snapshot is stable
across Python versions while still catching signature drift.
"""

from __future__ import annotations

import dataclasses
import inspect
import json
from pathlib import Path
from typing import Any

from repro.render import json_text

#: default snapshot location, relative to the repository root
SURFACE_PATH = Path("tests") / "api_surface.json"

#: snapshot layout version; bump on incompatible format changes
#: (2: added the DVFS governor registry, GovernorSpec and the
#: TimelineSample field list; 3: added the scenario generator, the
#: committed-corpus name grid and the differential-suite entry points;
#: 4: added the orchestration layer — pool backends, the wire types,
#: the result store, the sweep executor and the (since removed)
#: serve daemon;
#: 5: added the static-analysis layer — the rule registry with
#: categories/severities/fixability and the ``repro check`` entry
#: points;
#: 6: added the observability layer — the metric registry with
#: kinds/units, the trace recorder protocol, the enable switches and
#: their environment variables)
SURFACE_SCHEMA = 6


def _signature_of(function: Any) -> list[dict[str, Any]]:
    """Flatten a callable's parameters into JSON-stable records."""
    parameters = []
    for parameter in inspect.signature(function).parameters.values():
        record: dict[str, Any] = {"name": parameter.name}
        if parameter.kind in (
            inspect.Parameter.VAR_POSITIONAL,
            inspect.Parameter.VAR_KEYWORD,
        ):
            record["variadic"] = True
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY:
            record["keyword_only"] = True
        if parameter.default is not inspect.Parameter.empty:
            record["default"] = repr(parameter.default)
        parameters.append(record)
    return parameters


def _public_methods(cls: type) -> dict[str, list[dict[str, Any]]]:
    """Signatures of a class's public methods, inherited ones included
    (dunders and ``object``'s members excluded)."""
    members: dict[str, Any] = {}
    for klass in reversed(cls.__mro__):
        if klass is not object:
            members.update(vars(klass))
    methods: dict[str, list[dict[str, Any]]] = {}
    for name, member in sorted(members.items()):
        if name.startswith("_"):
            continue
        if isinstance(member, (classmethod, staticmethod)):
            member = member.__func__
        elif isinstance(member, property):
            methods[name] = [{"name": "property"}]
            continue
        if callable(member):
            methods[name] = _signature_of(member)
    return methods


def _class_registry_surface(
    names: tuple[str, ...], info: Any, *extras: str
) -> dict[str, Any]:
    """Snapshot of the policy or governor registry: display names,
    ``extras`` entry fields and declared parameters."""
    surface: dict[str, Any] = {}
    for name in sorted(names):
        entry = info(name)
        defaults = entry.param_defaults()
        surface[name] = {
            "display_name": entry.display_name,
            **{extra: getattr(entry, extra) for extra in extras},
            "params": {
                field.name: {
                    "type": str(field.type),
                    "default": repr(defaults.get(field.name)),
                }
                for field in dataclasses.fields(entry.params_type)
            },
        }
    return surface


def _scenarios_surface() -> dict[str, Any]:
    """The generator, corpus and differential-suite entry points."""
    from repro.bench.differential import (
        SUITES,
        run_suite,
        suite_governors,
        suite_policies,
    )
    from repro.scenarios.corpus import load_corpus
    from repro.scenarios.generate import (
        CORPUS_SCHEMA,
        SCENARIO_SHAPES,
        generate_scenario,
        pinned_corpus_names,
    )

    return {
        "shapes": list(SCENARIO_SHAPES),
        "generate_scenario": _signature_of(generate_scenario),
        "corpus": {
            "schema": CORPUS_SCHEMA,
            "names": list(pinned_corpus_names()),
        },
        "load_corpus": _signature_of(load_corpus),
        "suites": {
            suite: {
                "policies": list(suite_policies(suite)),
                "governors": list(suite_governors(suite)),
            }
            for suite in SUITES
        },
        "run_suite": _signature_of(run_suite),
    }


def _orchestration_surface() -> dict[str, Any]:
    """The warm pool, store and executor entry points."""
    import repro.orchestration as orchestration
    from repro.orchestration.executor import SweepExecutor
    from repro.orchestration.pools import (
        POOL_NAMES,
        PoolResult,
        PoolTask,
        WarmPool,
        resolve_pool_name,
    )
    from repro.orchestration.store import ResultStore

    return {
        "all": sorted(orchestration.__all__),
        "pool_names": list(POOL_NAMES),
        "pool": _public_methods(WarmPool),
        "pool_task": {
            "fields": [field.name for field in dataclasses.fields(PoolTask)],
        },
        "pool_result": {
            "fields": [field.name for field in dataclasses.fields(PoolResult)],
        },
        "store": _public_methods(ResultStore),
        "executor": _public_methods(SweepExecutor),
        "resolve_pool_name": _signature_of(resolve_pool_name),
    }


def _analysis_surface() -> dict[str, Any]:
    """The rule registry and the ``repro check`` entry points."""
    from repro.analysis import check_file, check_paths, register_rule
    from repro.analysis.cli import run_check
    from repro.analysis.registry import (
        CATEGORIES,
        SEVERITIES,
        registered_rules,
        rule_info,
    )

    rules: dict[str, Any] = {}
    for name in registered_rules():
        info = rule_info(name)
        rules[name] = {
            "category": info.category,
            "default_severity": info.default_severity,
            "fixable": info.fixable,
        }
    return {
        "categories": list(CATEGORIES),
        "severities": list(SEVERITIES),
        "rules": rules,
        "register_rule": _signature_of(register_rule),
        "check_file": _signature_of(check_file),
        "check_paths": _signature_of(check_paths),
        "run_check": _signature_of(run_check),
    }


def _obs_surface() -> dict[str, Any]:
    """The metric catalogue, trace recorder and enable switches."""
    import repro.obs as obs
    from repro.obs.log import progress
    from repro.obs.metrics import CATALOGUE, render_prometheus
    from repro.obs.trace import NullRecorder, TraceRecorder

    return {
        "all": sorted(obs.__all__),
        "metrics": {
            metric.name: {"kind": metric.kind, "unit": metric.unit}
            for metric in CATALOGUE
        },
        "render_prometheus": _signature_of(render_prometheus),
        "null_recorder": _public_methods(NullRecorder),
        "trace_recorder": _public_methods(TraceRecorder),
        "progress": _signature_of(progress),
    }


def compute_surface() -> dict[str, Any]:
    """The current public-API surface as a JSON-stable document."""
    import repro
    from repro.dvfs.governors import (
        GovernorSpec,
        governor_info,
        register_governor,
        registered_governors,
    )
    from repro.experiment import Experiment, WorkloadSpec
    from repro.partitioning.registry import (
        PolicySpec,
        policy_info,
        register_policy,
        registered_policies,
    )
    from repro.scenarios.timeline import TimelineSample
    from repro.sim.runner import ExperimentRunner

    return {
        "schema": SURFACE_SCHEMA,
        "all": sorted(repro.__all__),
        "experiment": {
            "fields": [field.name for field in dataclasses.fields(Experiment)],
            "methods": _public_methods(Experiment),
        },
        "workload_spec": {
            "fields": [field.name for field in dataclasses.fields(WorkloadSpec)],
            "methods": _public_methods(WorkloadSpec),
        },
        "policy_spec": {
            "fields": [field.name for field in dataclasses.fields(PolicySpec)],
            "methods": _public_methods(PolicySpec),
        },
        "governor_spec": {
            "fields": [field.name for field in dataclasses.fields(GovernorSpec)],
            "methods": _public_methods(GovernorSpec),
        },
        "timeline_sample": {
            "fields": [
                field.name for field in dataclasses.fields(TimelineSample)
            ],
        },
        "runner": _public_methods(ExperimentRunner),
        "register_policy": _signature_of(register_policy),
        "register_governor": _signature_of(register_governor),
        "policies": _class_registry_surface(
            registered_policies(), policy_info, "needs_monitors", "profile_kwarg"
        ),
        "governors": _class_registry_surface(
            registered_governors(), governor_info
        ),
        "scenarios": _scenarios_surface(),
        "orchestration": _orchestration_surface(),
        "analysis": _analysis_surface(),
        "obs": _obs_surface(),
    }


def render_surface() -> str:
    """The snapshot file contents for the current surface."""
    return json_text(compute_surface())


def diff_surface(committed: dict[str, Any], current: dict[str, Any]) -> list[str]:
    """Human-readable drift between snapshots (empty = no drift)."""
    from repro.bench.golden import diff_payloads

    return diff_payloads(committed, current)


def main(argv: list[str] | None = None) -> int:
    """Regenerate (default) or ``--check`` the committed snapshot."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.api_surface",
        description="Regenerate or verify the committed public-API snapshot.",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="compare against the committed snapshot and exit non-zero "
             "on drift instead of rewriting it",
    )
    parser.add_argument(
        "--path", default=str(SURFACE_PATH), metavar="FILE",
        help=f"snapshot location (default: {SURFACE_PATH})",
    )
    options = parser.parse_args(argv)
    path = Path(options.path)
    if options.check:
        if not path.exists():
            print(f"missing snapshot {path}; regenerate it first")
            return 1
        committed = json.loads(path.read_text())
        drift = diff_surface(committed, compute_surface())
        if drift:
            print(f"public-API surface drifted from {path}:")
            for line in drift:
                print(f"  {line}")
            print(
                "intentional? regenerate with: "
                "PYTHONPATH=src python -m repro.bench.api_surface"
            )
            return 1
        print(f"public-API surface matches {path}")
        return 0
    path.write_text(render_surface())
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":  # pragma: no cover - entry point
    raise SystemExit(main())
