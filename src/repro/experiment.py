"""Declarative experiment specs: one way to say "run this".

The paper's evaluation is a cross-product of (workload group × scheme
× geometry × threshold × scenario).  An :class:`Experiment` names one
cell of that product as a frozen, hashable value::

    Experiment(workload="G2-8",
               policy=PolicySpec("cooperative", threshold=0.1),
               system=scaled_two_core())

and every kind of run the protocol needs is a degenerate spec of the
same type:

* **group runs** — ``workload`` names a Table 4 group;
* **alone runs** — ``workload`` names a single benchmark (the system
  collapses to its one-core profiling variant, policy is Unmanaged);
* **scenario runs** — ``scenario`` carries a time-varying
  :class:`~repro.scenarios.model.Scenario` instead of a workload.

Specs validate **eagerly**: unknown groups/benchmarks/policies, group
sizes that do not match the core count, and mis-typed policy
parameters all fail at construction with actionable messages.

Normalisation makes equal runs equal values: a ``threshold`` policy
parameter folds into the system config (the paper treats T as a
system knob — ``SystemConfig.threshold`` is what policies receive),
and an alone workload collapses the config via
:meth:`~repro.sim.config.SystemConfig.alone`.  Consequently
:meth:`Experiment.task_key` reproduces the historical store keys
bit-for-bit for every built-in run shape — artifacts written by the
old string-based API resolve under the same keys, and golden fixtures
regenerate byte-identically.

Fluent builders cover the common shapes::

    Experiment.two_core("G2-8").with_policy(PolicySpec("ucp"))
    Experiment.alone_run("lbm", system=scaled_two_core())
    Experiment.for_scenario(scenario, system=config, policy="cooperative")

Serialisation (:meth:`to_dict` / :meth:`from_dict`) is lossless and
JSON-friendly; ``repro sweep --spec experiments.json`` runs a JSON
list of these documents through the store-backed executor.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.cache.geometry import CacheGeometry
from repro.dvfs.governors import GovernorSpec
from repro.partitioning.registry import PolicySpec
from repro.scenarios.model import Scenario
from repro.workloads.groups import group_benchmarks, group_names
from repro.workloads.profiles import BENCHMARK_PROFILES

if TYPE_CHECKING:
    from repro.sim.config import SystemConfig

# NOTE: repro.sim.config is imported lazily (inside the handful of
# functions that construct configs).  This module is the bottom of the
# public-API stack — repro.sim.runner and repro.orchestration both
# import it at module scope — so importing the sim package from here
# at import time would recreate the cycle the spec redesign removed.

#: Experiment.kind values
ALONE = "alone"
GROUP = "group"
SCENARIO = "scenario"

#: sentinel distinguishing "no declared default" from "default None"
_MISSING = object()


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WorkloadSpec:
    """What runs: a Table 4 group or a single benchmark (alone run)."""

    kind: str  # "group" | "benchmark"
    name: str

    def __post_init__(self) -> None:
        if self.kind == GROUP:
            group_benchmarks(self.name)  # raises KeyError with the name
        elif self.kind == "benchmark":
            if self.name not in BENCHMARK_PROFILES:
                raise ValueError(
                    f"unknown benchmark {self.name!r}; valid: "
                    f"{', '.join(sorted(BENCHMARK_PROFILES))}"
                )
        else:
            raise ValueError(
                f"workload kind must be 'group' or 'benchmark', got {self.kind!r}"
            )

    @classmethod
    def table_group(cls, name: str) -> "WorkloadSpec":
        """A Table 4 workload group (e.g. ``"G2-8"``)."""
        return cls(GROUP, name)

    @classmethod
    def benchmark(cls, name: str) -> "WorkloadSpec":
        """A single benchmark, i.e. an isolated profiling run."""
        return cls("benchmark", name)

    @classmethod
    def coerce(cls, value: "WorkloadSpec | str") -> "WorkloadSpec":
        """Accept a spec, a group name or a benchmark name."""
        if isinstance(value, cls):
            return value
        if not isinstance(value, str):
            raise TypeError(
                f"workload must be a WorkloadSpec or a name, got {value!r}"
            )
        if value in group_names(2) or value in group_names(4):
            return cls.table_group(value)
        if value in BENCHMARK_PROFILES:
            return cls.benchmark(value)
        raise ValueError(
            f"unknown workload {value!r}: neither a Table 4 group "
            f"(G2-1..G2-14, G4-1..G4-14) nor a benchmark "
            f"({', '.join(sorted(BENCHMARK_PROFILES))})"
        )

    @property
    def benchmarks(self) -> tuple[str, ...]:
        """The per-core benchmark list this workload expands to."""
        if self.kind == GROUP:
            return group_benchmarks(self.name)
        return (self.name,)


# ----------------------------------------------------------------------
# Experiment
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Experiment:
    """One fully-specified simulation: workload × policy × system
    (× optional time-varying scenario × optional DVFS governor).
    Frozen, hashable, eager."""

    workload: WorkloadSpec | None = None
    policy: PolicySpec | str = "cooperative"
    system: SystemConfig | None = None
    scenario: Scenario | None = None
    #: DVFS governor driving per-core V/f (None = nominal frequency,
    #: the historical machine — results and store keys unchanged)
    governor: GovernorSpec | str | None = None

    def __post_init__(self) -> None:
        policy = self.policy
        if isinstance(policy, str):
            policy = PolicySpec(policy)
        governor = self.governor
        if isinstance(governor, str):
            governor = GovernorSpec(governor)
        workload = self.workload
        if workload is not None:
            workload = WorkloadSpec.coerce(workload)
        if (workload is None) == (self.scenario is None):
            raise ValueError(
                "an Experiment needs exactly one of workload= (a group "
                "or benchmark) or scenario= (a time-varying schedule)"
            )
        system = self.system
        if system is None:
            system = self._infer_system(workload)
        # The takeover threshold is a system knob (policies receive
        # SystemConfig.threshold); a spec-level threshold folds into
        # the config so equal runs compare equal and store keys match
        # the historical `config.with_threshold(T)` wiring.  Folding
        # only applies to config-linked declarations (default None) —
        # a policy declaring its own non-None threshold default keeps
        # the parameter in the spec, where build_policy passes it
        # through verbatim.
        threshold = policy.non_default_params().get("threshold")
        if (
            threshold is not None
            and policy.info.param_defaults().get("threshold", _MISSING) is None
        ):
            system = system.with_threshold(float(threshold))
            remaining = policy.non_default_params()
            del remaining["threshold"]
            policy = PolicySpec(policy.name, **remaining)
        if workload is not None and workload.kind == "benchmark":
            if policy.name != "unmanaged":
                raise ValueError(
                    f"alone runs always profile under the 'unmanaged' "
                    f"policy (got {policy.name!r}); they measure the "
                    f"benchmark with the full LLC to itself"
                )
            if governor is not None:
                raise ValueError(
                    "alone runs always profile at the nominal frequency "
                    "(no governor); IPC_alone is the QoS reference every "
                    "DVFS comparison is measured against"
                )
            system = system.alone()
        elif workload is not None:
            expected = len(workload.benchmarks)
            if expected != system.n_cores:
                raise ValueError(
                    f"group {workload.name} has {expected} applications "
                    f"but the config has {system.n_cores} cores"
                )
        else:
            assert self.scenario is not None
            self.scenario.validate(system.n_cores)
            unknown = [
                name
                for name in self.scenario.benchmarks_used()
                if name not in BENCHMARK_PROFILES
            ]
            if unknown:
                raise ValueError(
                    f"scenario {self.scenario.name!r} references unknown "
                    f"benchmark(s) {', '.join(unknown)}"
                )
        object.__setattr__(self, "workload", workload)
        object.__setattr__(self, "policy", policy)
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "governor", governor)

    @staticmethod
    def _infer_system(workload: WorkloadSpec | None) -> SystemConfig:
        from repro.sim.config import scaled_four_core, scaled_two_core

        if workload is not None and workload.kind == GROUP:
            n_cores = len(group_benchmarks(workload.name))
            if n_cores == 2:
                return scaled_two_core()
            if n_cores == 4:
                return scaled_four_core()
        raise ValueError(
            "system= is required (only Table 4 group experiments can "
            "infer the scaled default geometry)"
        )

    # ------------------------------------------------------------------
    # Fluent builders
    # ------------------------------------------------------------------
    @classmethod
    def two_core(
        cls,
        group: str = "G2-1",
        *,
        refs_per_core: int | None = None,
        policy: PolicySpec | str = "cooperative",
    ) -> "Experiment":
        """A group run on the scaled two-core system."""
        from repro.sim.config import scaled_two_core

        system = (
            scaled_two_core()
            if refs_per_core is None
            else scaled_two_core(refs_per_core=refs_per_core)
        )
        return cls(workload=group, policy=policy, system=system)

    @classmethod
    def four_core(
        cls,
        group: str = "G4-1",
        *,
        refs_per_core: int | None = None,
        policy: PolicySpec | str = "cooperative",
    ) -> "Experiment":
        """A group run on the scaled four-core system."""
        from repro.sim.config import scaled_four_core

        system = (
            scaled_four_core()
            if refs_per_core is None
            else scaled_four_core(refs_per_core=refs_per_core)
        )
        return cls(workload=group, policy=policy, system=system)

    @classmethod
    def alone_run(cls, benchmark: str, *, system: SystemConfig) -> "Experiment":
        """``benchmark`` profiled by itself on the full LLC.

        Specs are interned: every call for one benchmark on one
        profiling config (by :func:`~repro.orchestration.serialize.
        config_token`, so ``0`` and ``0.0`` stay apart) returns the
        same frozen instance, whose task key is then derived once.
        """
        return _alone_specs(cls, (benchmark,), system)[0]

    @classmethod
    def for_scenario(
        cls,
        scenario: Scenario,
        *,
        system: SystemConfig,
        policy: PolicySpec | str = "cooperative",
        governor: GovernorSpec | str | None = None,
    ) -> "Experiment":
        """A time-varying schedule under one scheme (and optionally
        one DVFS governor)."""
        return cls(
            policy=policy, system=system, scenario=scenario, governor=governor
        )

    @classmethod
    def grid(
        cls,
        system: SystemConfig,
        groups: Sequence[str] | None = None,
        policies: Sequence[PolicySpec | str] | None = None,
        governor: GovernorSpec | str | None = None,
    ) -> list["Experiment"]:
        """The (group × policy) cross-product on one system — the
        figures' sweep shape.  Defaults: every Table 4 group of the
        system's core count, every built-in scheme in legend order.
        ``governor`` applies one DVFS governor to every cell."""
        from repro.sim.runner import ALL_POLICIES

        groups = list(groups) if groups is not None else group_names(system.n_cores)
        policies = list(policies) if policies is not None else list(ALL_POLICIES)
        return [
            cls(workload=group, policy=policy, system=system, governor=governor)
            for group in groups
            for policy in policies
        ]

    def with_policy(self, policy: PolicySpec | str) -> "Experiment":
        """Copy of this spec under a different scheme."""
        return dataclasses.replace(self, policy=policy)

    def with_governor(self, governor: GovernorSpec | str | None) -> "Experiment":
        """Copy of this spec under a different DVFS governor (None
        returns to the nominal-frequency machine)."""
        return dataclasses.replace(self, governor=governor)

    def with_system(self, system: SystemConfig) -> "Experiment":
        """Copy of this spec on a different machine."""
        return dataclasses.replace(self, system=system)

    def with_threshold(self, threshold: float) -> "Experiment":
        """Copy of this spec with a different takeover threshold."""
        assert self.system is not None
        return dataclasses.replace(
            self, system=self.system.with_threshold(threshold)
        )

    def with_refs(self, refs_per_core: int) -> "Experiment":
        """Copy of this spec with a different measured window."""
        assert self.system is not None
        return dataclasses.replace(
            self,
            system=dataclasses.replace(self.system, refs_per_core=refs_per_core),
        )

    def with_scenario(self, scenario: Scenario) -> "Experiment":
        """Copy of this spec running ``scenario`` instead of a fixed
        workload (the scenario's arrivals define what runs)."""
        return dataclasses.replace(self, workload=None, scenario=scenario)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def kind(self) -> str:
        """``"alone"``, ``"group"`` or ``"scenario"``."""
        if self.workload is None:
            return SCENARIO
        if self.workload.kind == "benchmark":
            return ALONE
        return GROUP

    @property
    def policy_name(self) -> str:
        """Short name of the scheme (``self.policy.name``)."""
        assert isinstance(self.policy, PolicySpec)
        return self.policy.name

    @property
    def label(self) -> str:
        """Human-readable one-liner (progress lines, CLI tables)."""
        kind = self.kind
        if kind == ALONE:
            return f"alone {self.workload.name}"
        suffix = f" +{self.governor.name}" if self.governor is not None else ""
        if kind == GROUP:
            return f"group {self.workload.name} {self.policy_name}{suffix}"
        return f"scenario {self.scenario.name} {self.policy_name}{suffix}"

    @property
    def benchmarks(self) -> tuple[str, ...]:
        """Every benchmark the run touches (scenario: all events)."""
        if self.scenario is not None:
            return self.scenario.benchmarks_used()
        assert self.workload is not None
        return self.workload.benchmarks

    def alone_dependencies(self) -> list["Experiment"]:
        """The alone runs this experiment depends on.

        Group runs depend on every member benchmark's alone run
        (weighted speedup needs IPC_alone for all of them); scenario
        runs only feed profile-driven policies (Dynamic CPE) their
        arrival benchmarks' curves; alone runs have no dependencies.

        Computed once per spec; the elements are the interned
        :meth:`alone_run` instances, so their task keys are derived
        once per sweep.  Each call returns a fresh list.
        """
        return list(self._alone_dependencies)

    @functools.cached_property
    def _alone_dependencies(self) -> tuple["Experiment", ...]:
        assert self.system is not None
        kind = self.kind
        if kind == ALONE:
            return ()
        if kind == GROUP:
            names: Iterable[str] = self.workload.benchmarks
        elif self.policy.info.profile_kwarg is not None:
            names = [
                name
                for name in self.scenario.arrival_benchmarks(self.system.n_cores)
                if name is not None
            ]
        else:
            return ()
        return _alone_specs(Experiment, dict.fromkeys(names), self.system)

    # ------------------------------------------------------------------
    # Store identity
    # ------------------------------------------------------------------
    def task_key(self) -> str:
        """Stable content address of this run in the result store.

        For built-in policies at default parameters (and no governor)
        this reproduces the historical ``alone``/``group``/``scenario``
        task keys exactly, so pre-redesign artifacts stay resolvable.
        Non-default policy parameters (third-party knobs, a pinned
        cooperative seed) and a DVFS governor extend the digest
        document and open a fresh key space.  The spec is frozen, so
        the digest is computed once per instance, and the config's
        canonical encoding once per process (cached by its type-exact
        :func:`~repro.orchestration.serialize.config_token`, since
        ``threshold=0`` and ``0.0`` are equal values with different
        keys).
        """
        return self._task_key

    @functools.cached_property
    def _task_key(self) -> str:
        from repro.orchestration import serialize

        assert isinstance(self.policy, PolicySpec) and self.system is not None
        extra = self.policy.non_default_params()
        governor = None
        if self.governor is not None:
            governor = {
                "name": self.governor.name,
                "params": self.governor.non_default_params(),
            }
        kind = self.kind
        if kind == ALONE:
            return serialize.alone_task_key(self.system, self.workload.name)
        if kind == GROUP:
            if extra or governor:
                params: dict[str, Any] = {
                    "group": self.workload.name,
                    "policy": self.policy_name,
                }
                if extra:
                    params["policy_params"] = extra
                if governor:
                    params["governor"] = governor
                return serialize.task_key("group", self.system, **params)
            return serialize.group_task_key(
                self.system, self.workload.name, self.policy_name
            )
        if extra or governor:
            params = {
                "scenario": serialize.scenario_to_dict(self.scenario),
                "policy": self.policy_name,
            }
            if extra:
                params["policy_params"] = extra
            if governor:
                params["governor"] = governor
            return serialize.task_key("scenario", self.system, **params)
        return serialize.scenario_task_key(
            self.system, self.scenario, self.policy_name
        )

    def store_meta(self) -> dict[str, Any]:
        """The human-facing artifact metadata for this run."""
        assert self.system is not None
        kind = self.kind
        if kind == ALONE:
            meta: dict[str, Any] = {
                "benchmark": self.workload.name,
                "l2": self.system.l2.describe(),
            }
        elif kind == GROUP:
            meta = {
                "group": self.workload.name,
                "policy": self.policy_name,
                "n_cores": self.system.n_cores,
                "l2": self.system.l2.describe(),
            }
        else:
            meta = {
                "scenario": self.scenario.name,
                "policy": self.policy_name,
                "n_cores": self.system.n_cores,
                "l2": self.system.l2.describe(),
                "events": len(self.scenario.events),
            }
        params = self.policy.non_default_params() if kind != ALONE else {}
        if params:
            meta["policy_params"] = params
        if self.governor is not None:
            meta["governor"] = self.governor.name
            governor_params = self.governor.non_default_params()
            if governor_params:
                meta["governor_params"] = governor_params
        return meta

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Lossless JSON-encodable form (the ``--spec`` file entry)."""
        from repro.orchestration.serialize import scenario_to_dict

        return {
            "workload": (
                {"kind": self.workload.kind, "name": self.workload.name}
                if self.workload is not None
                else None
            ),
            "policy": self.policy.to_dict(),
            "system": config_to_dict(self.system),
            "scenario": (
                scenario_to_dict(self.scenario) if self.scenario is not None else None
            ),
            "governor": (
                self.governor.to_dict() if self.governor is not None else None
            ),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Experiment":
        """Rebuild an experiment from :meth:`to_dict` output."""
        from repro.orchestration.serialize import scenario_from_dict

        workload = data.get("workload")
        scenario = data.get("scenario")
        governor = data.get("governor")
        return cls(
            workload=(
                WorkloadSpec(workload["kind"], workload["name"]) if workload else None
            ),
            policy=PolicySpec.from_dict(data["policy"]),
            system=config_from_dict(data["system"]),
            scenario=scenario_from_dict(scenario) if scenario else None,
            governor=GovernorSpec.from_dict(governor) if governor else None,
        )


def _alone_specs(
    cls: type[Experiment], benchmarks: Iterable[str], system: SystemConfig
) -> tuple[Experiment, ...]:
    """The interned alone specs of ``benchmarks`` on ``system``'s
    profiling config (derived and tokenised once for all of them)."""
    from repro.orchestration.serialize import config_token

    alone = system.alone()
    token = config_token(alone)
    return tuple(_interned_alone(cls, name, token, alone) for name in benchmarks)


@functools.lru_cache(maxsize=1024)
def _interned_alone(
    cls: type[Experiment],
    benchmark: str,
    _token: tuple[type, str],
    system: SystemConfig,
) -> Experiment:
    # ``_token`` only keys the cache: equal configs of other types
    # (``umon_decay=1`` vs ``1.0``) must not share a spec or its key.
    return cls(
        workload=WorkloadSpec.benchmark(benchmark), policy="unmanaged", system=system
    )


# ----------------------------------------------------------------------
# SystemConfig serialisation
# ----------------------------------------------------------------------
def _geometry_to_dict(geometry: CacheGeometry) -> dict[str, int]:
    return {
        "size_bytes": geometry.size_bytes,
        "line_bytes": geometry.line_bytes,
        "ways": geometry.ways,
    }


def config_to_dict(config: SystemConfig) -> dict[str, Any]:
    """JSON-encodable form of a config (init fields only — the derived
    geometry masks/shifts are recomputed on load)."""
    payload: dict[str, Any] = {}
    for field in dataclasses.fields(config):
        value = getattr(config, field.name)
        payload[field.name] = (
            _geometry_to_dict(value) if isinstance(value, CacheGeometry) else value
        )
    return payload


def config_from_dict(data: dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict`."""
    from repro.sim.config import SystemConfig

    kwargs = dict(data)
    kwargs["l1"] = CacheGeometry(**kwargs["l1"])
    kwargs["l2"] = CacheGeometry(**kwargs["l2"])
    return SystemConfig(**kwargs)


def by_group_policy(
    results: "dict[Experiment, Any]",
) -> dict[str, dict[str, Any]]:
    """Pivot a spec-keyed sweep result into the figures' nested
    ``{group: {policy_short_name: run}}`` table shape."""
    table: dict[str, dict[str, Any]] = {}
    for experiment, run in results.items():
        if experiment.kind != GROUP:
            continue
        table.setdefault(experiment.workload.name, {})[
            experiment.policy_name
        ] = run
    return table
