"""Project-invariant static analysis — the lint-time complement of
the golden/differential suites.

Everything this reproduction promises — bit-identical results across
engines, pools and sessions — rests on code-level invariants
(deterministic seeding, no wall-clock or process-salted values in
keys, atomic store writes).  The dynamic suites catch violations
hours after they are written, and only when a fixture happens to
exercise them; this package catches them at lint time with rules a
generic linter cannot express.

The pieces mirror the policy/governor registries the rest of the
project uses:

* :mod:`repro.analysis.registry` — ``@register_rule(name, category,
  default_severity)`` decorator registry; :func:`registered_rules`,
  :func:`rule_info`, :data:`RULE_NAMES`.
* :mod:`repro.analysis.engine` — per-file AST pass, ``# repro:
  noqa[rule-id]`` / ``# repro: noqa-file[rule-id]`` suppression,
  ``--fix`` application.
* :mod:`repro.analysis.rules` — the built-in rule set: determinism,
  concurrency/store safety, suppression hygiene.

``repro check`` (:mod:`repro.analysis.cli`) is the front end; see
``docs/static-analysis.md`` for the rule catalog and etiquette.
"""

from repro.analysis.engine import (
    AnalysisContext,
    apply_fixes,
    check_file,
    check_paths,
    discover_files,
)
from repro.analysis.registry import (
    CATEGORIES,
    RULE_NAMES,
    Finding,
    RegisteredRule,
    register_rule,
    registered_rules,
    rule_info,
    unregister_rule,
)

__all__ = [
    "AnalysisContext",
    "CATEGORIES",
    "Finding",
    "RegisteredRule",
    "RULE_NAMES",
    "apply_fixes",
    "check_file",
    "check_paths",
    "discover_files",
    "register_rule",
    "registered_rules",
    "rule_info",
    "unregister_rule",
]
