"""Suppression-hygiene rules — the analysis keeps itself honest."""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import AnalysisContext
from repro.analysis.registry import Finding, is_registered, register_rule
from repro.analysis.rules.common import enclosing_function_names


@register_rule(
    "unknown-suppression",
    category="meta",
    default_severity="warning",
    summary="`# repro: noqa[...]` naming an unregistered rule",
)
def check_unknown_suppression(context: AnalysisContext) -> Iterator[Finding]:
    """A suppression naming a rule that does not exist suppresses
    nothing — usually a typo that leaves the real finding live (or a
    rule that was since renamed; update or drop the comment)."""
    for line, rule in context.suppression_mentions:
        if is_registered(rule):
            continue
        yield Finding(
            rule="unknown-suppression",
            path=context.relpath,
            line=line,
            message=(
                f"suppression names unknown rule {rule!r}; registered "
                f"rules are listed by `repro check --list-rules`"
            ),
        )


#: modules whose whole job is terminal I/O: CLI front-ends, script
#: entry points, and the sanctioned progress sink itself
_PRINT_EXEMPT_SUFFIXES = ("cli", "__main__")
_PRINT_EXEMPT_MODULES = frozenset({"repro.obs.log"})


@register_rule(
    "bare-print",
    category="meta",
    default_severity="warning",
    summary="bare print() in a library module",
)
def check_bare_print(context: AnalysisContext) -> Iterator[Finding]:
    """Library code must not write to the terminal directly: a bare
    ``print()`` ignores ``--quiet``, which pool workers inherit too, and
    corrupts machine-read stdout (``--format json``, ``--metrics -``).
    Route progress through ``repro.obs.log.progress``.  CLI modules
    (``*cli``, ``__main__``), ``main()`` entry-point functions, and
    ``repro.obs.log`` itself are exempt — terminal I/O is their job."""
    module = context.module
    if module in _PRINT_EXEMPT_MODULES:
        return
    if module.rsplit(".", 1)[-1] in _PRINT_EXEMPT_SUFFIXES:
        return
    owner = enclosing_function_names(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        if not (isinstance(node.func, ast.Name) and node.func.id == "print"):
            continue
        if owner.get(node.lineno) == "main":
            continue
        yield Finding(
            rule="bare-print",
            path=context.relpath,
            line=node.lineno,
            message=(
                "bare print() in library code bypasses --quiet and "
                "pollutes structured output; use "
                "repro.obs.log.progress (or return the text)"
            ),
        )
