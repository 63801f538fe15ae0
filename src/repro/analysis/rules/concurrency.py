"""Concurrency and store-safety rules.

The result store is shared by racing writers (warm/ssh pool
workers, the serve daemon, concurrent sweeps); its contract is that
every visible file is either complete (temp-file + ``os.replace``) or
an O_APPEND whole-line append.  Pool workers additionally inherit
module state at fork/import time, so module-level mutable handles are
cross-process hazards.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.engine import AnalysisContext
from repro.analysis.registry import Finding, register_rule
from repro.analysis.rules.common import import_aliases, resolve_call

#: the concurrent-writer surface: modules whose files are read and
#: written by racing pool workers, serve schedulers and sweeps (the
#: CLI's user-facing report files are single-writer and exempt)
_STORE_MODULES = frozenset(
    {
        "repro.orchestration.store",
        "repro.orchestration.serve",
        "repro.orchestration.pools",
        "repro.orchestration.executor",
    }
)

#: receiver/target spellings that mark a write as the temp half of an
#: atomic temp-file + os.replace pair
_TEMPORARY_MARKERS = ("tmp", "temp")

#: thread/process primitives that must not be created at module scope
_FORK_UNSAFE_FACTORIES = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Event",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "multiprocessing.Lock",
        "multiprocessing.RLock",
        "random.Random",
        "random.SystemRandom",
    }
)


def _looks_temporary(node: ast.expr) -> bool:
    """Heuristic: the write target is the temp half of an atomic pair
    (named ``*tmp*``/``*temp*``, or a path literal containing it)."""
    text = ast.unparse(node).lower()
    return any(marker in text for marker in _TEMPORARY_MARKERS)


def _write_mode(node: ast.Call) -> str | None:
    """The mode string of an ``open()`` call, if literal."""
    if len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
        if isinstance(node.args[1].value, str):
            return node.args[1].value
    for keyword in node.keywords:
        if keyword.arg == "mode" and isinstance(keyword.value, ast.Constant):
            if isinstance(keyword.value.value, str):
                return keyword.value.value
    return None


@register_rule(
    "nonatomic-store-write",
    category="concurrency",
    default_severity="error",
    summary="non-atomic write under the shared-store layer",
)
def check_nonatomic_store_write(context: AnalysisContext) -> Iterator[Finding]:
    """In ``repro.orchestration.*``, any ``open(..., \"w\")`` or
    ``Path.write_text``/``write_bytes`` whose target is not a temp
    file (renamed into place with ``os.replace``) can be observed
    half-written by a concurrent reader.  Append-mode and read-mode
    opens are fine; so is ``os.open`` with ``O_APPEND``."""
    if context.module not in _STORE_MODULES:
        return
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        target: ast.expr | None = None
        what = ""
        if isinstance(node.func, ast.Name) and node.func.id == "open":
            mode = _write_mode(node)
            if mode is None or not any(flag in mode for flag in "wx+"):
                continue
            if not node.args:
                continue
            target, what = node.args[0], f'open(..., "{mode}")'
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in ("write_text", "write_bytes")
        ):
            target, what = node.func.value, f"{node.func.attr}()"
        if target is None or _looks_temporary(target):
            continue
        yield Finding(
            rule="nonatomic-store-write",
            path=context.relpath,
            line=node.lineno,
            message=(
                f"{what} on a non-temporary target in the shared-store "
                f"layer is visible half-written to concurrent readers; "
                f"write a sibling temp file and os.replace it (or use "
                f"O_APPEND whole-line appends)"
            ),
        )


@register_rule(
    "fork-shared-state",
    category="concurrency",
    default_severity="warning",
    summary="fork-unsafe handle created at module scope",
)
def check_fork_shared_state(context: AnalysisContext) -> Iterator[Finding]:
    """Locks, RNG instances and open file handles created at module
    import time are captured by pool workers (fork inherits them,
    spawn re-creates them differently) — per-process state diverges
    silently.  Create them per worker, inside functions or
    ``__init__``."""
    aliases = import_aliases(context.tree)
    for statement in context.tree.body:
        targets: list[ast.stmt] = [statement]
        if isinstance(statement, (ast.If, ast.Try)):
            targets = list(ast.walk(statement))  # guarded module scope
        for node in targets:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            dotted = resolve_call(value.func, aliases)
            opened = (
                isinstance(value.func, ast.Name) and value.func.id == "open"
            )
            if dotted not in _FORK_UNSAFE_FACTORIES and not opened:
                continue
            handle = "open()" if opened else f"{dotted}()"
            yield Finding(
                rule="fork-shared-state",
                path=context.relpath,
                line=node.lineno,
                message=(
                    f"{handle} at module scope is inherited by pool "
                    f"workers in a fork-unsafe way; create it per "
                    f"worker (inside a function or __init__)"
                ),
            )
