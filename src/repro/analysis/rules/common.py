"""Shared AST helpers for the built-in rules."""

from __future__ import annotations

import ast
from typing import Optional


def import_aliases(tree: ast.Module) -> dict[str, str]:
    """Map local names to the canonical dotted name they import.

    ``import numpy as np`` → ``{"np": "numpy"}``; ``from random
    import choice`` → ``{"choice": "random.choice"}``; ``import
    numpy.random`` binds the top package (``{"numpy": "numpy"}``).
    Relative imports are project-internal and skipped.
    """
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    top = alias.name.split(".")[0]
                    aliases[top] = top
        elif isinstance(node, ast.ImportFrom):
            if node.level or not node.module:
                continue
            for alias in node.names:
                local = alias.asname or alias.name
                aliases[local] = f"{node.module}.{alias.name}"
    return aliases


def resolve_call(func: ast.expr, aliases: dict[str, str]) -> Optional[str]:
    """Canonical dotted name of a call target, resolved through the
    file's imports — ``None`` when the base is not an imported name
    (locals, ``self.…``)."""
    parts: list[str] = []
    node = func
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    base = aliases.get(node.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def is_set_expression(node: ast.expr, aliases: dict[str, str]) -> bool:
    """Set display, set comprehension, or a ``set()``/``frozenset()``
    call — the expressions whose iteration order is a hash-salt
    artifact."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def enclosing_function_names(tree: ast.Module) -> dict[int, str]:
    """Map each line to the name of its innermost enclosing function."""
    owner: dict[int, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            end = node.end_lineno or node.lineno
            for line in range(node.lineno, end + 1):
                owner[line] = node.name  # inner defs overwrite outer
    return owner
