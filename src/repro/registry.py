"""One registry implementation behind the policy, governor and rule
registries.

A :class:`Registry` maps short names to entries of one *kind*
(``policy``, ``governor``, ``rule``) and names that kind in every
error it raises.  It lists built-ins first (in their declared order),
then third-party registrations, and imports its built-in modules only
on first lookup — each applies the registration decorator when
imported, so imports stay one-way.

Class registries (policies, governors) record :class:`Registered`
entries: the class plus a typed parameter dataclass::

    @dataclass(frozen=True)
    class MyParams:
        aggressiveness: float = 0.5

A :class:`Spec` names a registered class plus a parameter binding
(``PolicySpec("cooperative", threshold=0.1)``).  It validates
*eagerly*: unknown names fail with the registered alternatives,
unknown parameters with the accepted ones, and mis-typed values at
construction — never halfway into a simulation.  Specs are frozen and
hashable and compare by their *bound* parameters (defaults filled in).
"""

from __future__ import annotations

import dataclasses
from importlib import import_module
from typing import (
    TYPE_CHECKING, Any, Callable, ClassVar, Generic, Iterator, Mapping, TypeVar,
)

if TYPE_CHECKING:
    from typing import Self

E = TypeVar("E")


class Registry(Generic[E]):
    """Short name -> entry, for one kind of registered thing."""

    def __init__(
        self,
        kind: str,
        plural: str,
        *,
        builtins: tuple[str, ...] = (),
        modules: tuple[str, ...] = (),
    ) -> None:
        self.kind = kind
        self.plural = plural
        #: built-in names, listed first in this order
        self.builtins = builtins
        #: modules registering the built-ins when imported
        self.modules = modules
        self._entries: dict[str, E] = {}
        self._owners: dict[str, str] = {}
        self._loaded = not modules

    def load_builtins(self) -> None:
        if not self._loaded:
            # Flip first: the imports below re-enter via add().
            self._loaded = True
            for module in self.modules:
                import_module(module)

    def add(self, name: str, owner: Any, entry: E) -> None:
        """Record ``entry`` under ``name``; ``owner`` is the registered
        class or function, named if ``name`` is registered again."""
        if name in self._entries:
            raise ValueError(
                f"{self.kind} {name!r} is already registered (by "
                f"{self._owners[name]}); call "
                f"unregister_{self.kind}({name!r}) first"
            )
        self._entries[name] = entry
        self._owners[name] = owner.__qualname__

    def remove(self, name: str) -> None:
        if self._entries.pop(name, None) is None:
            raise ValueError(
                f"{self.kind} {name!r} is not registered; registered "
                f"{self.plural}: {', '.join(sorted(self._entries)) or 'none'}"
            )
        del self._owners[name]

    def names(self) -> tuple[str, ...]:
        """Built-ins in declared order, then the rest in registration
        order."""
        self.load_builtins()
        first = tuple(name for name in self.builtins if name in self._entries)
        return first + tuple(
            name for name in self._entries if name not in self.builtins
        )

    def info(self, name: str) -> E:
        """Entry for ``name``; unknown names fail with the registered
        alternatives."""
        self.load_builtins()
        try:
            return self._entries[name]
        except KeyError:
            raise ValueError(
                f"unknown {self.kind} {name!r}; registered {self.plural}: "
                f"{', '.join(self._catalog())}"
            ) from None

    def _catalog(self) -> list[str]:
        """Names as listed in the unknown-name error."""
        return sorted(self._entries)

    def __contains__(self, name: object) -> bool:
        self.load_builtins()
        return name in self._entries

    def __len__(self) -> int:
        self.load_builtins()
        return len(self._entries)

    def class_decorator(
        self, name: str, params: type, entry: Callable[[type], E]
    ) -> Callable[[type], type]:
        """Decorator registering a class as ``entry(cls)``; ``params``
        must be the dataclass declaring its parameters."""
        if not (isinstance(params, type) and dataclasses.is_dataclass(params)):
            raise TypeError(
                f"params must be a dataclass type declaring the "
                f"{self.kind}'s parameters, got {params!r}"
            )

        def decorate(cls: type) -> type:
            self.add(name, cls, entry(cls))
            return cls

        return decorate


class DisplayNames(Mapping[str, str]):
    """Live short-name -> display-name view of a class registry."""

    def __init__(self, registry: Registry[Any]) -> None:
        self._registry = registry

    def __getitem__(self, key: str) -> str:
        if key not in self._registry:
            raise KeyError(key)
        return str(self._registry.info(key).display_name)

    def __iter__(self) -> Iterator[str]:
        return iter(self._registry.names())

    def __len__(self) -> int:
        return len(self._registry)

    def __repr__(self) -> str:
        return repr(dict(self))


@dataclasses.dataclass(frozen=True)
class Registered:
    """One class-registry entry: the class plus its declared metadata."""

    name: str
    cls: type
    display_name: str
    params_type: type

    @classmethod
    def of(
        cls, name: str, owner: type, params: type, display_name: str | None,
        **extra: Any,
    ) -> Self:
        """Entry for ``owner``; the display name defaults to its
        ``name`` attribute."""
        return cls(
            name=name,
            cls=owner,
            display_name=display_name or getattr(owner, "name", name),
            params_type=params,
            **extra,
        )

    def param_fields(self) -> dict[str, dataclasses.Field[Any]]:
        """Declared parameters, keyed by name."""
        return {field.name: field for field in dataclasses.fields(self.params_type)}

    def param_defaults(self) -> dict[str, Any]:
        """Default value of every declared parameter."""
        defaults: dict[str, Any] = {}
        for name, field in self.param_fields().items():
            if field.default is not dataclasses.MISSING:
                defaults[name] = field.default
            elif field.default_factory is not dataclasses.MISSING:
                defaults[name] = field.default_factory()
        return defaults


# ----------------------------------------------------------------------
# Typed parameter binding
# ----------------------------------------------------------------------
#: annotation tokens the binding checks; anything else is accepted as-is
_CHECKED_TOKENS = ("int", "float", "str", "bool", "None")


def _annotation_names(annotation: Any) -> list[str]:
    """Flatten an annotation (string under PEP 563, or a live type /
    union) into simple type-name tokens."""
    if isinstance(annotation, str):
        return [token.strip() for token in annotation.split("|")]
    if isinstance(annotation, type):
        return [annotation.__name__]
    return [str(annotation)]


def _check_param_type(
    kind: str, owner: str, name: str, value: Any, annotation: Any
) -> Any:
    """Eager type check of one parameter value; coerces int -> float
    for float-annotated parameters so bindings stay canonical."""
    tokens = _annotation_names(annotation)
    known = [token for token in tokens if token in _CHECKED_TOKENS]
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
        f"{kind} {owner!r} parameter {name!r} expects "
        f"{' | '.join(tokens)}, got {type(value).__name__} {value!r}"
    )


def _bind_params(
    kind: str, info: Registered, provided: dict[str, Any]
) -> dict[str, Any]:
    """Validate ``provided`` against the declared params and fill
    defaults; raises eagerly on unknown names, missing requireds and
    type mismatches, and on any rule the params type checks when it
    is constructed (its ``__post_init__``)."""
    fields = info.param_fields()
    unknown = sorted(set(provided) - set(fields))
    if unknown:
        accepted = ", ".join(sorted(fields)) or (
            f"none (the {kind} has no parameters)"
        )
        raise ValueError(
            f"unknown parameter(s) {', '.join(unknown)} for {kind} "
            f"{info.name!r}; accepted: {accepted}"
        )
    defaults = info.param_defaults()
    bound: dict[str, Any] = {}
    for name, field in fields.items():
        if name in provided:
            bound[name] = _check_param_type(
                kind, info.name, name, provided[name], field.type
            )
        elif name in defaults:
            bound[name] = defaults[name]
        else:
            raise ValueError(f"{kind} {info.name!r} requires parameter {name!r}")
    info.params_type(**bound)
    return bound


# ----------------------------------------------------------------------
# Specs
# ----------------------------------------------------------------------
R = TypeVar("R", bound=Registered)


@dataclasses.dataclass(frozen=True, init=False, repr=False)
class Spec(Generic[R]):
    """A registered class plus a validated parameter binding.

    Frozen and hashable; equality is over the *bound* parameters, so
    ``PolicySpec("cooperative")`` equals
    ``PolicySpec("cooperative", threshold=None)``.  Subclasses set
    ``_registry``.
    """

    _registry: ClassVar[Registry[Any]]

    name: str
    #: canonical, sorted (parameter, value) binding — defaults included
    params: tuple[tuple[str, Any], ...]

    def __init__(self, name: str, **params: Any) -> None:
        registry = self._registry
        bound = _bind_params(registry.kind, registry.info(name), params)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "params", tuple(sorted(bound.items())))

    # -- introspection -------------------------------------------------
    @property
    def info(self) -> R:
        """The registry entry this spec resolves to."""
        return self._registry.info(self.name)

    @property
    def display_name(self) -> str:
        """The human-readable (figure-legend) name."""
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

    def with_params(self, **updates: Any) -> Self:
        """Copy of this spec with ``updates`` merged into the binding."""
        merged = {**self.non_default_params(), **updates}
        return type(self)(self.name, **merged)

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-encodable form (non-default parameters only)."""
        return {"name": self.name, "params": self.non_default_params()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> Self:
        """Rebuild a spec from :meth:`to_dict` output."""
        return cls(data["name"], **data.get("params", {}))

    def __repr__(self) -> str:
        extras = "".join(
            f", {name}={value!r}"
            for name, value in sorted(self.non_default_params().items())
        )
        return f"{type(self).__name__}({self.name!r}{extras})"
