"""Determinism rules.

Bit-identical results across worker processes, hosts and sessions are
the project's core contract (task keys, store artifacts, golden
fixtures).  These rules flag the constructs that historically broke
it: unseeded or process-global RNGs, process-salted ``hash()`` /
address-derived ``id()``, wall-clock reads outside the one blessed
call site, hash-salt-ordered set iteration feeding ordered sinks, and
``json.dumps`` without ``sort_keys=True``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from repro.analysis.engine import AnalysisContext
from repro.analysis.registry import Finding, register_rule
from repro.analysis.rules.common import (
    enclosing_function_names,
    import_aliases,
    is_set_expression,
    resolve_call,
)

#: functions of the process-global Mersenne Twister (shared, ordering-
#: dependent state — results change with call interleaving)
_GLOBAL_RANDOM_FNS = frozenset(
    {
        "betavariate", "choice", "choices", "expovariate", "gauss",
        "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
        "randbytes", "randint", "random", "randrange", "sample", "seed",
        "shuffle", "triangular", "uniform", "vonmisesvariate",
        "weibullvariate",
    }
)

#: wall-clock reads; monotonic duration clocks (``perf_counter``,
#: ``monotonic``) are deliberately absent — timing *spans* is fine,
#: *timestamps* in results are not
_WALL_CLOCK_FNS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: the one module allowed to read the wall clock (everything else
#: calls its wall_now; see repro.orchestration.clock)
_WALL_CLOCK_ALLOWLIST = frozenset({"repro.orchestration.clock"})


@register_rule(
    "unseeded-random",
    category="determinism",
    default_severity="error",
    summary="unseeded or process-global RNG",
)
def check_unseeded_random(context: AnalysisContext) -> Iterator[Finding]:
    """``random.Random()`` with no seed, module-level ``random.*``
    draws, ``SystemRandom``, and ``numpy.random`` outside a seeded
    generator all vary per process; derive every RNG through
    ``repro.workloads.seeding.stable_rng``."""
    aliases = import_aliases(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = resolve_call(node.func, aliases)
        if dotted is None:
            continue
        message = None
        if dotted == "random.Random" and not node.args and not node.keywords:
            message = (
                "random.Random() without a seed draws from process "
                "entropy; seed it via repro.workloads.seeding.stable_rng"
            )
        elif dotted in ("random.SystemRandom", "secrets.SystemRandom"):
            message = (
                "SystemRandom is OS entropy and can never reproduce; "
                "use a seeded random.Random"
            )
        elif (
            dotted.startswith("random.")
            and dotted.removeprefix("random.") in _GLOBAL_RANDOM_FNS
        ):
            message = (
                f"{dotted}() uses the process-global RNG (shared, "
                f"call-order dependent); use a seeded random.Random "
                f"instance from repro.workloads.seeding.stable_rng"
            )
        elif dotted.startswith("numpy.random."):
            tail = dotted.removeprefix("numpy.random.")
            if tail == "default_rng":
                if not node.args and not node.keywords:
                    message = (
                        "numpy.random.default_rng() without a seed is "
                        "fresh OS entropy per process; pass an explicit "
                        "seed"
                    )
            elif tail not in ("Generator", "SeedSequence", "PCG64"):
                message = (
                    f"{dotted}() uses numpy's process-global RNG; draw "
                    f"from a seeded numpy.random.default_rng(seed) "
                    f"generator instead"
                )
        if message is not None:
            yield Finding(
                rule="unseeded-random",
                path=context.relpath,
                line=node.lineno,
                message=message,
            )


@register_rule(
    "salted-hash",
    category="determinism",
    default_severity="error",
    summary="process-salted hash() / address-derived id()",
)
def check_salted_hash(context: AnalysisContext) -> Iterator[Finding]:
    """Builtin ``hash()`` is salted per process and ``id()`` is a heap
    address: either one flowing into task keys, store keys or
    serialized fields silently breaks cross-process identity.  Use
    ``zlib.crc32``/``hashlib`` on canonical bytes instead (the
    ``repro.workloads.seeding`` helpers for RNG keys)."""
    owner = enclosing_function_names(context.tree)
    for node in ast.walk(context.tree):
        if not (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("hash", "id")
        ):
            continue
        if owner.get(node.lineno) == "__hash__":
            continue  # defining an object's own hash is the one home
        name = node.func.id
        detail = (
            "salted per process (PYTHONHASHSEED)"
            if name == "hash"
            else "a heap address, unique only within one process"
        )
        yield Finding(
            rule="salted-hash",
            path=context.relpath,
            line=node.lineno,
            message=(
                f"builtin {name}() is {detail}; it must never reach "
                f"task keys, store keys or serialized fields — use "
                f"zlib.crc32/hashlib over canonical bytes"
            ),
        )


@register_rule(
    "wall-clock",
    category="determinism",
    default_severity="error",
    summary="wall-clock read outside repro.orchestration.clock",
)
def check_wall_clock(context: AnalysisContext) -> Iterator[Finding]:
    """``time.time()`` and friends embed the run's wall time into
    whatever they touch; every timestamp must come through
    ``repro.orchestration.clock.wall_now``, the one call site that
    keeps wall time out of results.  Monotonic span timers
    (``perf_counter``) are fine."""
    if context.module in _WALL_CLOCK_ALLOWLIST:
        return
    aliases = import_aliases(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = resolve_call(node.func, aliases)
        if dotted in _WALL_CLOCK_FNS:
            yield Finding(
                rule="wall-clock",
                path=context.relpath,
                line=node.lineno,
                message=(
                    f"{dotted}() reads the wall clock; call "
                    f"repro.orchestration.clock.wall_now instead (the "
                    f"only allowlisted call site)"
                ),
            )


@register_rule(
    "set-iteration-order",
    category="determinism",
    default_severity="warning",
    summary="hash-ordered set iteration feeding an ordered sink",
)
def check_set_iteration(context: AnalysisContext) -> Iterator[Finding]:
    """Iterating a set (``for``, ``join``, ``list()``/``tuple()``)
    yields hash-salt order — different per process for strings.  Wrap
    the set in ``sorted()`` before the order can leak into results,
    keys or serialized output."""
    aliases = import_aliases(context.tree)
    for node in ast.walk(context.tree):
        target: ast.expr | None = None
        how = ""
        if isinstance(node, ast.For) and is_set_expression(node.iter, aliases):
            target, how = node.iter, "for-loop over"
        elif isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "join"
                and len(node.args) == 1
                and is_set_expression(node.args[0], aliases)
            ):
                target, how = node.args[0], "join() over"
            elif (
                isinstance(node.func, ast.Name)
                and node.func.id in ("list", "tuple")
                and len(node.args) == 1
                and is_set_expression(node.args[0], aliases)
            ):
                target, how = node.args[0], f"{node.func.id}() of"
        if target is not None:
            yield Finding(
                rule="set-iteration-order",
                path=context.relpath,
                line=node.lineno,
                message=(
                    f"{how} a set iterates in hash-salt order (varies "
                    f"per process for strings); wrap it in sorted()"
                ),
            )


def _sort_keys_fix(context: AnalysisContext, call: ast.Call) -> tuple[int, str] | None:
    """Whole-line replacement inserting ``sort_keys=True`` — only for
    single-line calls, where the edit is mechanical."""
    if call.lineno != call.end_lineno or call.end_col_offset is None:
        return None
    line = context.line_text(call.lineno)
    close = call.end_col_offset - 1
    if close >= len(line) or line[close] != ")":
        return None
    head = line[:close]
    if head.rstrip().endswith("("):
        head = head.rstrip() + "sort_keys=True"
    elif head.rstrip().endswith(","):
        head = head.rstrip() + " sort_keys=True"
    else:
        head = head.rstrip() + ", sort_keys=True"
    return call.lineno, head + line[close:]


@register_rule(
    "json-sort-keys",
    category="determinism",
    default_severity="warning",
    fixable=True,
    summary="json.dumps/json.dump without sort_keys=True",
)
def check_json_sort_keys(context: AnalysisContext) -> Iterator[Finding]:
    """Un-sorted JSON serialization leaks dict construction order into
    artifacts and content digests; every ``json.dumps``/``json.dump``
    must pass ``sort_keys=True`` (``repro check --fix`` inserts it)."""
    aliases = import_aliases(context.tree)
    for node in ast.walk(context.tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = resolve_call(node.func, aliases)
        if dotted not in ("json.dumps", "json.dump"):
            continue
        keyword_names = {keyword.arg for keyword in node.keywords}
        if "sort_keys" in keyword_names or None in keyword_names:
            continue  # explicit, or **kwargs we cannot see through
        yield Finding(
            rule="json-sort-keys",
            path=context.relpath,
            line=node.lineno,
            message=(
                f"{dotted}() without sort_keys=True serializes in dict "
                f"construction order; pass sort_keys=True (--fix does)"
            ),
            fix=_sort_keys_fix(context, node),
        )
