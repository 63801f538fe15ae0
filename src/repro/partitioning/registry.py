"""Pluggable policy registry: typed specs instead of an if/elif chain.

Every partitioning scheme — the five built-ins and any third-party
policy — registers itself with the :func:`register_policy` decorator,
declaring a typed parameter dataclass::

    @dataclass(frozen=True)
    class MyParams:
        aggressiveness: float = 0.5

    @register_policy("my_scheme", params=MyParams)
    class MyPolicy(BaseSharedCachePolicy):
        name = "My Scheme"
        ...

A :class:`PolicySpec` names a registered policy plus an eagerly
validated parameter binding (``PolicySpec("cooperative",
threshold=0.1)``); it is the policy half of an
:class:`~repro.experiment.Experiment`.  The registry and spec
machinery is shared with the governor and rule registries (see
:mod:`repro.registry`).

Two parameter names are **config-linked**: a ``threshold`` or ``seed``
parameter left at ``None`` is resolved from the
:class:`~repro.sim.config.SystemConfig` at construction time
(``config.threshold`` / ``config.seed``), which is exactly how the
historical string-based factory wired the built-ins.

The built-in schemes register lazily: this module imports *no* policy
code at import time — each policy module applies the decorator when it
is imported, and the registry imports the built-in modules on first
lookup.  That is what breaks the historical
``registry -> repro.core.policy -> repro.partitioning`` import cycle.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Any, Callable

from repro.registry import DisplayNames, Registered, Registry, Spec

if TYPE_CHECKING:
    from repro.cache.memory import MainMemory
    from repro.cache.set_associative import SetAssociativeCache
    from repro.energy.accounting import EnergyAccounting
    from repro.monitor.umon import UtilityMonitor
    from repro.partitioning.base import BaseSharedCachePolicy, PolicyStats
    from repro.sim.config import SystemConfig

@dataclasses.dataclass(frozen=True)
class NoParams:
    """Parameter set of a policy or governor with no tunables."""


#: parameter names resolved from the system config when left at None
CONFIG_LINKED_PARAMS = ("threshold", "seed")


@dataclasses.dataclass(frozen=True)
class RegisteredPolicy(Registered):
    """One registry entry: the policy class plus its declared metadata."""

    #: whether the simulator must attach per-core UtilityMonitors
    needs_monitors: bool
    #: constructor keyword receiving profiled miss curves (Dynamic CPE
    #: style), or None for policies that do not consume profiles; a
    #: non-None value also tells the runner to compute alone-run curves
    profile_kwarg: str | None


#: the five evaluated schemes list first, in the paper's legend order
_POLICIES: Registry[RegisteredPolicy] = Registry(
    "policy",
    "policies",
    builtins=("unmanaged", "fair_share", "cpe", "ucp", "cooperative"),
    modules=(
        "repro.partitioning.unmanaged",
        "repro.partitioning.fair_share",
        "repro.partitioning.cpe",
        "repro.partitioning.ucp",
        "repro.core.policy",
    ),
)


# ----------------------------------------------------------------------
# Registration
# ----------------------------------------------------------------------
def register_policy(
    name: str,
    *,
    params: type = NoParams,
    display_name: str | None = None,
    needs_monitors: bool | None = None,
    profile_kwarg: str | None = None,
) -> Callable[[type], type]:
    """Class decorator registering a partitioning policy under ``name``.

    ``params`` is a dataclass declaring the policy's spec-addressable
    parameters (defaults included); ``display_name`` defaults to the
    class's ``name`` attribute and ``needs_monitors`` to its
    ``needs_monitors`` attribute.  ``profile_kwarg`` names the
    constructor keyword that receives profiled alone-run miss curves
    (see :class:`RegisteredPolicy`).  Registering a name twice raises
    — call :func:`unregister_policy` first (tests, notebook reloads).
    """
    return _POLICIES.class_decorator(
        name,
        params,
        lambda cls: RegisteredPolicy.of(
            name,
            cls,
            params,
            display_name,
            needs_monitors=(
                bool(getattr(cls, "needs_monitors", False))
                if needs_monitors is None
                else needs_monitors
            ),
            profile_kwarg=profile_kwarg,
        ),
    )


def unregister_policy(name: str) -> None:
    """Remove ``name`` from the registry (no-op safety for built-ins
    is deliberate — removing one is legal but unusual)."""
    _POLICIES.remove(name)


def registered_policies() -> tuple[str, ...]:
    """Short names of every registered policy (built-ins in legend
    order, then third-party registrations)."""
    return _POLICIES.names()


def policy_info(name: str) -> RegisteredPolicy:
    """Registry entry for ``name``; unknown names fail with the list
    of registered policies."""
    return _POLICIES.info(name)


class PolicySpec(Spec[RegisteredPolicy]):
    """A registered policy plus a validated parameter binding — the
    policy half of an :class:`~repro.experiment.Experiment`."""

    _registry = _POLICIES


# ----------------------------------------------------------------------
# Construction
# ----------------------------------------------------------------------
def build_policy(
    spec: "PolicySpec | str",
    cache: "SetAssociativeCache",
    memory: "MainMemory",
    energy: "EnergyAccounting",
    stats: "PolicyStats",
    monitors: "list[UtilityMonitor] | None" = None,
    *,
    config: "SystemConfig | None" = None,
    profiles: "list[list] | None" = None,
) -> "BaseSharedCachePolicy":
    """Instantiate the policy a spec names.

    Config-linked parameters (``threshold``/``seed``) left at ``None``
    resolve from ``config``; ``profiles`` lands on the policy's
    declared ``profile_kwarg`` (Dynamic CPE's per-epoch miss curves).
    """
    if isinstance(spec, str):
        spec = PolicySpec(spec)
    info = spec.info
    kwargs: dict[str, Any] = {}
    for name, value in spec.params:
        if value is None and name in CONFIG_LINKED_PARAMS:
            if config is None:
                continue  # fall back to the policy's own default
            value = getattr(config, name)
        kwargs[name] = value
    if info.profile_kwarg is not None and profiles is not None:
        kwargs[info.profile_kwarg] = profiles
    return info.cls(cache, memory, energy, stats, monitors, **kwargs)


#: short name -> display name (matches the paper's figure legends)
POLICY_NAMES = DisplayNames(_POLICIES)
