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

A :class:`PolicySpec` names a registered policy plus a parameter
binding (``PolicySpec("cooperative", threshold=0.1)``).  It validates
*eagerly*: unknown policy names fail with the list of registered
policies, unknown parameters fail with the list of accepted ones, and
mis-typed values are rejected at construction — never halfway into a
simulation.  Specs are frozen and hashable, compare by their *bound*
parameters (defaults filled in), and are the policy half of an
:class:`~repro.experiment.Experiment`.

Two parameter names are **config-linked**: a ``threshold`` or ``seed``
parameter left at ``None`` is resolved from the
:class:`~repro.sim.config.SystemConfig` at construction time
(``config.threshold`` / ``config.seed``), which is exactly how the
historical string-based factory wired the built-ins.

The built-in schemes register lazily: this module imports *no* policy
code at import time — each policy module applies the decorator when it
is imported, and the registry imports the built-in modules on first
lookup.  That is what breaks the historical
``registry -> repro.core.policy -> repro.partitioning`` import cycle
the old factory papered over with an import-inside-function.
"""

from __future__ import annotations

import dataclasses
from importlib import import_module
from typing import TYPE_CHECKING, Any, Iterator, Mapping

if TYPE_CHECKING:
    from repro.cache.memory import MainMemory
    from repro.cache.set_associative import SetAssociativeCache
    from repro.energy.accounting import EnergyAccounting
    from repro.monitor.umon import UtilityMonitor
    from repro.partitioning.base import BaseSharedCachePolicy, PolicyStats
    from repro.sim.config import SystemConfig


@dataclasses.dataclass(frozen=True)
class NoParams:
    """Parameter set of a policy with no tunables."""


#: parameter names resolved from the system config when left at None
CONFIG_LINKED_PARAMS = ("threshold", "seed")


@dataclasses.dataclass(frozen=True)
class RegisteredPolicy:
    """One registry entry: the policy class plus its declared metadata."""

    name: str
    cls: type
    display_name: str
    params_type: type
    #: whether the simulator must attach per-core UtilityMonitors
    needs_monitors: bool
    #: constructor keyword receiving profiled miss curves (Dynamic CPE
    #: style), or None for policies that do not consume profiles; a
    #: non-None value also tells the runner to compute alone-run curves
    profile_kwarg: str | None

    def param_fields(self) -> dict[str, dataclasses.Field]:
        """Declared parameters, keyed by name."""
        return {field.name: field for field in dataclasses.fields(self.params_type)}

    def param_defaults(self) -> dict[str, Any]:
        """Default value of every declared parameter."""
        defaults: dict[str, Any] = {}
        for name, field in self.param_fields().items():
            if field.default is not dataclasses.MISSING:
                defaults[name] = field.default
            elif field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
                defaults[name] = field.default_factory()  # type: ignore[misc]
        return defaults


_REGISTRY: dict[str, RegisteredPolicy] = {}

#: the five evaluated schemes in the paper's figure-legend order;
#: iteration over the registry (POLICY_NAMES, registered_policies)
#: yields these first, then third-party policies in registration order
_LEGEND_ORDER = ("unmanaged", "fair_share", "cpe", "ucp", "cooperative")

#: modules registering the built-in schemes on import.  The
#: cooperative scheme lives in repro.core, which imports this module's
#: decorator — importing it lazily on first *lookup* keeps the
#: dependency one-way at import time.
_BUILTIN_MODULES = (
    "repro.partitioning.unmanaged",
    "repro.partitioning.fair_share",
    "repro.partitioning.cpe",
    "repro.partitioning.ucp",
    "repro.core.policy",
)

_builtins_loaded = False


def _ensure_builtins() -> None:
    global _builtins_loaded
    if not _builtins_loaded:
        # Flip first: the imports below re-enter via register_policy.
        _builtins_loaded = True
        for module in _BUILTIN_MODULES:
            import_module(module)


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
):
    """Class decorator registering a partitioning policy under ``name``.

    ``params`` is a dataclass declaring the policy's spec-addressable
    parameters (defaults included); ``display_name`` defaults to the
    class's ``name`` attribute and ``needs_monitors`` to its
    ``needs_monitors`` attribute.  ``profile_kwarg`` names the
    constructor keyword that receives profiled alone-run miss curves
    (see :class:`RegisteredPolicy`).  Registering a name twice raises
    — call :func:`unregister_policy` first (tests, notebook reloads).
    """
    if not (isinstance(params, type) and dataclasses.is_dataclass(params)):
        raise TypeError(
            f"params must be a dataclass type declaring the policy's "
            f"parameters, got {params!r}"
        )

    def decorate(cls: type) -> type:
        if name in _REGISTRY:
            raise ValueError(
                f"policy {name!r} is already registered (by "
                f"{_REGISTRY[name].cls.__qualname__}); call "
                f"unregister_policy({name!r}) first"
            )
        _REGISTRY[name] = RegisteredPolicy(
            name=name,
            cls=cls,
            display_name=display_name or getattr(cls, "name", name),
            params_type=params,
            needs_monitors=(
                bool(getattr(cls, "needs_monitors", False))
                if needs_monitors is None
                else needs_monitors
            ),
            profile_kwarg=profile_kwarg,
        )
        return cls

    return decorate


def unregister_policy(name: str) -> None:
    """Remove ``name`` from the registry (no-op safety for built-ins
    is deliberate — removing one is legal but unusual)."""
    if _REGISTRY.pop(name, None) is None:
        raise ValueError(
            f"policy {name!r} is not registered; "
            f"registered policies: {', '.join(sorted(_REGISTRY)) or 'none'}"
        )


def _ordered_names() -> tuple[str, ...]:
    """Built-ins in the paper's legend order, then third-party
    policies in registration order."""
    builtins = tuple(name for name in _LEGEND_ORDER if name in _REGISTRY)
    extras = tuple(name for name in _REGISTRY if name not in _LEGEND_ORDER)
    return builtins + extras


def registered_policies() -> tuple[str, ...]:
    """Short names of every registered policy (built-ins in legend
    order, then third-party registrations)."""
    _ensure_builtins()
    return _ordered_names()


def policy_info(name: str) -> RegisteredPolicy:
    """Registry entry for ``name``; unknown names fail with the list
    of registered policies."""
    _ensure_builtins()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown policy {name!r}; registered policies: "
            f"{', '.join(sorted(_REGISTRY))}"
        ) from None


# ----------------------------------------------------------------------
# Typed parameter binding
# ----------------------------------------------------------------------
_ATOMIC_TYPES: dict[str, type] = {
    "int": int,
    "float": float,
    "str": str,
    "bool": bool,
}


def _annotation_names(annotation: Any) -> list[str]:
    """Flatten an annotation (string under PEP 563, or a live type /
    union) into simple type-name tokens."""
    if isinstance(annotation, str):
        return [token.strip() for token in annotation.split("|")]
    if isinstance(annotation, type):
        return [annotation.__name__]
    return [str(annotation)]


def _check_param_type(policy: str, name: str, value: Any, annotation: Any) -> Any:
    """Eager type check of one parameter value; coerces int -> float
    for float-annotated parameters so bindings stay canonical."""
    tokens = _annotation_names(annotation)
    known = [token for token in tokens if token in _ATOMIC_TYPES or token == "None"]
    if not known:
        return value  # unannotated / exotic annotation: accept as-is
    for token in known:
        if token == "None":
            if value is None:
                return value
        elif token == "bool":
            if isinstance(value, bool):
                return value
        elif token == "float":
            if isinstance(value, bool):
                continue
            if isinstance(value, float):
                return value
            if isinstance(value, int):
                return float(value)
        elif token == "int":
            if isinstance(value, int) and not isinstance(value, bool):
                return value
        elif token == "str":
            if isinstance(value, str):
                return value
    raise TypeError(
        f"policy {policy!r} parameter {name!r} expects "
        f"{' | '.join(tokens)}, got {type(value).__name__} {value!r}"
    )


def _bind_params(info: RegisteredPolicy, provided: dict[str, Any]) -> dict[str, Any]:
    """Validate ``provided`` against the declared params and fill
    defaults; raises eagerly on unknown names, missing requireds and
    type mismatches."""
    fields = info.param_fields()
    unknown = sorted(set(provided) - set(fields))
    if unknown:
        accepted = ", ".join(sorted(fields)) or "none (the policy has no parameters)"
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for policy "
            f"{info.name!r}; accepted: {accepted}"
        )
    bound: dict[str, Any] = {}
    for name, field in fields.items():
        if name in provided:
            bound[name] = _check_param_type(
                info.name, name, provided[name], field.type
            )
        elif field.default is not dataclasses.MISSING:
            bound[name] = field.default
        elif field.default_factory is not dataclasses.MISSING:  # type: ignore[misc]
            bound[name] = field.default_factory()  # type: ignore[misc]
        else:
            raise ValueError(
                f"policy {info.name!r} requires parameter {name!r}"
            )
    return bound


# ----------------------------------------------------------------------
# PolicySpec
# ----------------------------------------------------------------------
@dataclasses.dataclass(frozen=True, init=False, repr=False)
class PolicySpec:
    """A registered policy plus a validated parameter binding.

    Frozen and hashable; equality is over the *bound* parameters, so
    ``PolicySpec("cooperative")`` equals
    ``PolicySpec("cooperative", threshold=None)``.
    """

    name: str
    #: canonical, sorted (parameter, value) binding — defaults included
    params: tuple[tuple[str, Any], ...]

    def __init__(self, name: str, **params: Any) -> None:
        info = policy_info(name)
        bound = _bind_params(info, params)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(sorted(bound.items())))

    # -- introspection -------------------------------------------------
    @property
    def info(self) -> RegisteredPolicy:
        """The registry entry this spec resolves to."""
        return policy_info(self.name)

    @property
    def display_name(self) -> str:
        """The figure-legend name of the policy."""
        return self.info.display_name

    def bound_params(self) -> dict[str, Any]:
        """The complete parameter binding, defaults filled in."""
        return dict(self.params)

    def non_default_params(self) -> dict[str, Any]:
        """Parameters bound to something other than their default —
        the part of the binding that identifies a run."""
        defaults = self.info.param_defaults()
        return {
            name: value
            for name, value in self.params
            if name not in defaults or defaults[name] != value
        }

    def with_params(self, **updates: Any) -> "PolicySpec":
        """Copy of this spec with ``updates`` merged into the binding."""
        merged = {**self.non_default_params(), **updates}
        return PolicySpec(self.name, **merged)

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-encodable form (non-default parameters only)."""
        return {"name": self.name, "params": self.non_default_params()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PolicySpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(data["name"], **data.get("params", {}))

    def __repr__(self) -> str:
        extras = "".join(
            f", {name}={value!r}"
            for name, value in sorted(self.non_default_params().items())
        )
        return f"PolicySpec({self.name!r}{extras})"


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


# ----------------------------------------------------------------------
# Legacy surface
# ----------------------------------------------------------------------
class _PolicyNames(Mapping):
    """Live short-name -> display-name view (the historical
    ``POLICY_NAMES`` constant, now fed by the registry)."""

    def __getitem__(self, key: str) -> str:
        _ensure_builtins()
        info = _REGISTRY.get(key)
        if info is None:
            raise KeyError(key)
        return info.display_name

    def __iter__(self) -> Iterator[str]:
        _ensure_builtins()
        return iter(_ordered_names())

    def __len__(self) -> int:
        _ensure_builtins()
        return len(_REGISTRY)

    def __repr__(self) -> str:
        return repr(dict(self))


#: short name -> display name (matches the paper's figure legends)
POLICY_NAMES = _PolicyNames()

