"""The ``repro check`` front end.

Runs the registered rules over the tree (default: ``src``) and
reports in one of three formats: ``table`` (humans), ``json``
(tooling), ``github`` (workflow annotations).  ``--fix`` applies the
mechanical fixes the fixable rules carry and re-checks.  Exit code 1
on any warning/error finding; only a ``# repro: noqa[rule]`` on the
finding's line (or ``noqa-file`` in its file) exempts one.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.engine import apply_fixes, check_paths, iter_findings_by_file
from repro.analysis.registry import (
    Finding,
    registered_rules,
    rule_info,
)
from repro.render import json_text

#: severities that gate (info never does)
_GATING = ("warning", "error")


def _select_rules(raw: Optional[str]) -> Optional[list[str]]:
    if raw is None:
        return None
    names = [name.strip() for name in raw.split(",") if name.strip()]
    for name in names:
        rule_info(name)  # raises with the registered ids on a typo
    return names


def _print_catalog() -> None:
    print(f"{len(registered_rules())} registered rules:\n")
    width = max(len(name) for name in registered_rules())
    for name in registered_rules():
        info = rule_info(name)
        fixable = "  [--fix]" if info.fixable else ""
        print(
            f"  {name:<{width}}  {info.category:<12} "
            f"{info.default_severity:<8} {info.summary}{fixable}"
        )


def _format_table(findings: Sequence[Finding], gating: int) -> None:
    for path, group in iter_findings_by_file(findings):
        for finding in group:
            print(
                f"{path}:{finding.line}: {finding.severity} "
                f"[{finding.rule}] {finding.message}"
            )
    print(f"\n{len(findings)} finding(s) ({gating} gating)")


def _format_github(findings: Sequence[Finding]) -> None:
    for finding in findings:
        level = "error" if finding.severity == "error" else "warning"
        message = f"[{finding.rule}] {finding.message}"
        print(
            f"::{level} file={finding.path},line={finding.line}::{message}"
        )


def _format_json(findings: Sequence[Finding], gating: int) -> None:
    document = {
        "schema": 2,
        "ok": not gating,
        "counts": {"findings": len(findings), "gating": gating},
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "severity": f.severity,
                "message": f.message,
                "fixable": f.fix is not None,
            }
            for f in findings
        ],
    }
    print(json_text(document), end="")


def run_check(
    paths: Sequence[str],
    *,
    root: Path,
    rules: Optional[list[str]] = None,
    output_format: str = "table",
    fix: bool = False,
) -> int:
    """The check pipeline; returns the process exit code."""
    targets = [root / p if not Path(p).is_absolute() else Path(p)
               for p in paths]
    findings = check_paths(targets, rules=rules, root=root)

    if fix:
        fixed = apply_fixes(findings, root=root)
        if fixed:
            print(f"fixed {fixed} line(s); re-checking")
            findings = check_paths(targets, rules=rules, root=root)

    gating = sum(1 for f in findings if f.severity in _GATING)
    if output_format == "json":
        _format_json(findings, gating)
    elif output_format == "github":
        _format_github(findings)
    else:
        _format_table(findings, gating)
    return 1 if gating else 0


def cmd_check(options: argparse.Namespace) -> int:
    """Handler behind the ``repro check`` subcommand."""
    if options.list_rules:
        _print_catalog()
        return 0
    root = Path(options.root).resolve()
    paths = list(options.paths)
    if not paths:
        paths = ["src"] if (root / "src").is_dir() else ["."]
    try:
        rules = _select_rules(options.rules)
    except ValueError as error:
        print(error)
        return 2
    return run_check(
        paths,
        root=root,
        rules=rules,
        output_format=options.format,
        fix=options.fix,
    )


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Install the ``repro check`` options on ``parser``."""
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="files/directories to check (default: src/ under --root)",
    )
    parser.add_argument(
        "--rules", metavar="A,B,...",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--format", choices=("table", "json", "github"), default="table",
        help="report format (default: table)",
    )
    parser.add_argument(
        "--fix", action="store_true",
        help="apply the mechanical fixes of fixable rules, then re-check",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalog and exit",
    )
    parser.add_argument(
        "--root", metavar="DIR", default=".",
        help="repository root findings are reported relative to "
             "(default: cwd)",
    )
