"""The rule registry — ``@register_rule`` on the same
:class:`~repro.registry.Registry` as the policy and governor registries.

A rule is a callable ``(context: AnalysisContext) -> Iterable[Finding]``
registered under a stable kebab-case id.  Built-in rules live in
:mod:`repro.analysis.rules` and register lazily on first lookup;
third-party rules just import this module and decorate.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Optional

from repro.registry import Registry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.engine import AnalysisContext

#: severity ladder, weakest first.  ``info`` never gates; ``warning``
#: and ``error`` fail ``repro check`` unless suppressed.
SEVERITIES = ("info", "warning", "error")

#: rule families (the registry rejects anything else so the catalog
#: stays organised)
CATEGORIES = ("determinism", "concurrency", "meta")


@dataclasses.dataclass(frozen=True)
class Finding:
    """One rule hit at one source location.

    ``fix`` optionally carries a whole-line replacement ``(line_number,
    new_text)`` applied by ``repro check --fix``; only mechanical
    rules set it.  ``severity`` defaults to the rule's declared
    default at report time when left ``None``.
    """

    rule: str
    path: str
    line: int
    message: str
    severity: Optional[str] = None
    fix: Optional[tuple[int, str]] = None

    def replace(self, **changes: object) -> "Finding":
        return dataclasses.replace(self, **changes)  # type: ignore[arg-type]


RuleCheck = Callable[["AnalysisContext"], Iterable[Finding]]


@dataclasses.dataclass(frozen=True)
class RegisteredRule:
    """Registry record for one rule."""

    name: str
    check: RuleCheck
    category: str
    default_severity: str
    summary: str
    fixable: bool = False


class _RuleRegistry(Registry[RegisteredRule]):
    """Rules list sorted by (category, name), not built-ins first."""

    def names(self) -> tuple[str, ...]:
        self.load_builtins()
        order = {category: index for index, category in enumerate(CATEGORIES)}
        return tuple(
            sorted(
                self._entries,
                key=lambda name: (order[self._entries[name].category], name),
            )
        )

    def _catalog(self) -> list[str]:
        return list(self.names())


_RULES = _RuleRegistry("rule", "rules", modules=("repro.analysis.rules",))


def register_rule(
    name: str,
    *,
    category: str,
    default_severity: str = "warning",
    fixable: bool = False,
    summary: str | None = None,
) -> Callable[[RuleCheck], RuleCheck]:
    """Function decorator registering a rule under ``name``.

    ``category`` must be one of :data:`CATEGORIES` and
    ``default_severity`` one of :data:`SEVERITIES`; ``summary``
    defaults to the first docstring line.  Registering a name twice
    raises — call :func:`unregister_rule` first (tests, reloads).
    """
    if category not in CATEGORIES:
        raise ValueError(
            f"unknown rule category {category!r}; one of {CATEGORIES}"
        )
    if default_severity not in SEVERITIES:
        raise ValueError(
            f"unknown severity {default_severity!r}; one of {SEVERITIES}"
        )

    def decorate(check: RuleCheck) -> RuleCheck:
        doc = (check.__doc__ or "").strip().splitlines()
        _RULES.add(
            name,
            check,
            RegisteredRule(
                name=name,
                check=check,
                category=category,
                default_severity=default_severity,
                summary=summary or (doc[0] if doc else name),
                fixable=fixable,
            ),
        )
        return check

    return decorate


def unregister_rule(name: str) -> None:
    """Remove ``name`` from the registry (tests, reloads)."""
    _RULES.remove(name)


def registered_rules() -> tuple[str, ...]:
    """Ids of every registered rule, sorted by (category, name)."""
    return _RULES.names()


def rule_info(name: str) -> RegisteredRule:
    """Registry record for ``name`` (raises with the known ids)."""
    return _RULES.info(name)


def is_registered(name: str) -> bool:
    return name in _RULES


class _RuleNames:
    """Live, iterable view of the registered rule ids (mirrors
    ``POLICY_NAMES``/``GOVERNOR_NAMES``)."""

    def __iter__(self) -> Iterator[str]:
        return iter(registered_rules())

    def __contains__(self, name: object) -> bool:
        return isinstance(name, str) and is_registered(name)

    def __len__(self) -> int:
        return len(registered_rules())

    def __repr__(self) -> str:
        return f"RULE_NAMES{registered_rules()!r}"


#: live view of the registered rule ids
RULE_NAMES = _RuleNames()
