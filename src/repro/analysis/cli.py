"""The ``repro check`` front end.

Runs the registered rules over the tree (default: ``src``), subtracts
the committed baseline, and reports in one of three formats:
``table`` (humans), ``json`` (tooling), ``github`` (workflow
annotations).  ``--fix`` applies the mechanical fixes the fixable
rules carry and re-checks; ``--update-baseline`` rewrites the
baseline to cover today's findings (preserving existing
justifications).  Exit code 1 on any unbaselined warning/error
finding — and on *stale* baseline entries, so the baseline can only
shrink honestly.
"""

from __future__ import annotations

import argparse
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.baseline import (
    BASELINE_PATH,
    Baseline,
    fingerprint_findings,
    load_baseline,
    write_baseline,
)
from repro.analysis.engine import apply_fixes, check_paths, iter_findings_by_file
from repro.analysis.registry import (
    Finding,
    registered_rules,
    rule_info,
)
from repro.render import json_text

#: severities that gate (info never does)
_GATING = ("warning", "error")


class _LineTextCache:
    """``line_text_for(path, line)`` over relpaths under a root."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self._lines: dict[str, list[str]] = {}

    def __call__(self, relpath: str, line: int) -> str:
        lines = self._lines.get(relpath)
        if lines is None:
            base = Path(relpath)
            target = base if base.is_absolute() else self.root / base
            try:
                lines = target.read_text(encoding="utf-8").splitlines()
            except OSError:
                lines = []
            self._lines[relpath] = lines
        if 1 <= line <= len(lines):
            return lines[line - 1]
        return ""

    def invalidate(self) -> None:
        self._lines.clear()


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


def _format_table(
    findings: Sequence[Finding],
    baselined: int,
    stale: Sequence,
) -> None:
    for path, group in iter_findings_by_file(findings):
        for finding in group:
            print(
                f"{path}:{finding.line}: {finding.severity} "
                f"[{finding.rule}] {finding.message}"
            )
    for entry in stale:
        print(
            f"{entry.path}: stale baseline entry [{entry.rule}] "
            f"{entry.fingerprint} — the finding is gone; delete it"
        )
    gating = sum(1 for f in findings if f.severity in _GATING)
    print(
        f"\n{len(findings)} finding(s) ({gating} gating), "
        f"{baselined} baselined, {len(stale)} stale baseline entr"
        f"{'y' if len(stale) == 1 else 'ies'}"
    )


def _format_github(findings: Sequence[Finding], stale: Sequence) -> None:
    for finding in findings:
        level = "error" if finding.severity == "error" else "warning"
        message = f"[{finding.rule}] {finding.message}"
        print(
            f"::{level} file={finding.path},line={finding.line}::{message}"
        )
    for entry in stale:
        print(
            f"::warning file={entry.path}::stale baseline entry "
            f"[{entry.rule}] {entry.fingerprint}"
        )


def _format_json(
    findings: Sequence[Finding],
    paired_fingerprints: dict[int, str],
    baselined: int,
    stale: Sequence,
    ok: bool,
) -> None:
    document = {
        "schema": 1,
        "ok": ok,
        "counts": {
            "findings": len(findings),
            "gating": sum(1 for f in findings if f.severity in _GATING),
            "baselined": baselined,
            "stale": len(stale),
        },
        "findings": [
            {
                "rule": f.rule,
                "path": f.path,
                "line": f.line,
                "severity": f.severity,
                "message": f.message,
                "fingerprint": paired_fingerprints.get(index),
                "fixable": f.fix is not None,
            }
            for index, f in enumerate(findings)
        ],
        "stale": [
            {"fingerprint": e.fingerprint, "rule": e.rule, "path": e.path}
            for e in stale
        ],
    }
    print(json_text(document), end="")


def run_check(
    paths: Sequence[str],
    *,
    root: Path,
    rules: Optional[list[str]] = None,
    baseline_path: Optional[Path] = None,
    output_format: str = "table",
    fix: bool = False,
    update_baseline: bool = False,
) -> int:
    """The check pipeline; returns the process exit code."""
    line_text = _LineTextCache(root)
    targets = [root / p if not Path(p).is_absolute() else Path(p)
               for p in paths]
    findings = check_paths(targets, rules=rules, root=root)

    if fix:
        fixed = apply_fixes(findings, root=root)
        if fixed:
            print(f"fixed {fixed} line(s); re-checking")
            line_text.invalidate()
            findings = check_paths(targets, rules=rules, root=root)

    baseline = (
        load_baseline(baseline_path) if baseline_path is not None else Baseline()
    )
    paired = fingerprint_findings(findings, line_text)
    fresh, grandfathered, stale = baseline.split(paired)

    if update_baseline:
        assert baseline_path is not None
        keep = [
            (finding, fingerprint)
            for finding, fingerprint in paired
            if finding.severity in _GATING
        ]
        count = write_baseline(
            baseline_path, keep, line_text, existing=baseline
        )
        print(f"wrote {baseline_path} with {count} entr"
              f"{'y' if count == 1 else 'ies'}")
        return 0

    gating = [f for f in fresh if f.severity in _GATING]
    ok = not gating and not stale
    if output_format == "json":
        fingerprints = {
            index: fingerprint
            for index, (finding, fingerprint) in enumerate(
                (pair for pair in paired if pair[0] in fresh)
            )
        }
        _format_json(fresh, fingerprints, len(grandfathered), stale, ok)
    elif output_format == "github":
        _format_github(fresh, stale)
    else:
        _format_table(fresh, len(grandfathered), stale)
    return 0 if ok else 1


def cmd_check(options: argparse.Namespace) -> int:
    """Handler behind the ``repro check`` subcommand."""
    if options.list_rules:
        _print_catalog()
        return 0
    root = Path(options.root).resolve()
    paths = list(options.paths)
    if not paths:
        paths = ["src"] if (root / "src").is_dir() else ["."]
    baseline_path: Optional[Path] = None
    if options.baseline != "none":
        raw = Path(options.baseline) if options.baseline else BASELINE_PATH
        baseline_path = raw if raw.is_absolute() else root / raw
    try:
        rules = _select_rules(options.rules)
    except ValueError as error:
        print(error)
        return 2
    return run_check(
        paths,
        root=root,
        rules=rules,
        baseline_path=baseline_path,
        output_format=options.format,
        fix=options.fix,
        update_baseline=options.update_baseline,
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
        "--baseline", metavar="FILE", default=None,
        help=f"baseline file (default: {BASELINE_PATH}; 'none' disables)",
    )
    parser.add_argument(
        "--update-baseline", action="store_true",
        help="rewrite the baseline to cover current findings "
             "(existing justifications preserved) and exit 0",
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
