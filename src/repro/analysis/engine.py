"""The per-file analysis pass: parse, annotate, run rules, suppress.

One :class:`AnalysisContext` is built per Python file and handed to
every selected rule.  It pre-computes everything the rules share —
the AST, the source lines and the ``# repro: noqa[...]`` suppression
maps — so a rule is a pure function over the context.

Suppression grammar (checked by the ``unknown-suppression`` rule):

* ``# repro: noqa[rule-a,rule-b]`` — suppress those rules on the
  physical line carrying the comment (put it on the line the finding
  reports, i.e. the first line of a multi-line statement).
* ``# repro: noqa-file[rule-a]`` — suppress for the whole file, from
  any line (conventionally the module docstring's vicinity).
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

from repro.analysis.registry import (
    Finding,
    RegisteredRule,
    registered_rules,
    rule_info,
)

#: suppression comment grammar
_NOQA_RE = re.compile(r"#\s*repro:\s*noqa\[([^\]]*)\]")
_NOQA_FILE_RE = re.compile(r"#\s*repro:\s*noqa-file\[([^\]]*)\]")


def _split_ids(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


class AnalysisContext:
    """Everything the rules need to know about one file."""

    def __init__(
        self,
        path: Path,
        source: str,
        *,
        root: Optional[Path] = None,
    ) -> None:
        self.path = path
        self.root = root
        self.relpath = self._relative(path, root)
        self.module = self._module_name(self.relpath)
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        (
            self.line_suppressions,
            self.file_suppressions,
            self.suppression_mentions,
        ) = self._parse_suppressions(self._comments(source))

    # ------------------------------------------------------------------
    # Identity
    # ------------------------------------------------------------------
    @staticmethod
    def _relative(path: Path, root: Optional[Path]) -> str:
        if root is not None:
            try:
                return path.resolve().relative_to(root.resolve()).as_posix()
            except ValueError:
                pass
        return path.as_posix()

    @staticmethod
    def _module_name(relpath: str) -> str:
        """Dotted module path; anchored at the ``repro`` package when
        the file lives inside one (so allowlists hold wherever the
        scan is rooted), the bare stem otherwise."""
        parts = list(Path(relpath).with_suffix("").parts)
        if "repro" in parts:
            parts = parts[parts.index("repro"):]
        if parts and parts[-1] == "__init__":
            parts = parts[:-1]
        return ".".join(parts)

    # ------------------------------------------------------------------
    # Suppressions
    # ------------------------------------------------------------------
    @staticmethod
    def _comments(source: str) -> list[tuple[int, str]]:
        """(line, text) of every *real* comment token — docstrings and
        string literals quoting the grammar do not count."""
        comments: list[tuple[int, str]] = []
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for token in tokens:
                if token.type == tokenize.COMMENT:
                    comments.append((token.start[0], token.string))
        except (tokenize.TokenError, IndentationError):
            pass  # ast.parse succeeded, so this is best-effort anyway
        return comments

    @staticmethod
    def _parse_suppressions(
        comments: Sequence[tuple[int, str]],
    ) -> tuple[dict[int, frozenset[str]], frozenset[str], list[tuple[int, str]]]:
        per_line: dict[int, frozenset[str]] = {}
        whole_file: set[str] = set()
        mentions: list[tuple[int, str]] = []
        for number, text in comments:
            if "repro:" not in text:
                continue
            match = _NOQA_FILE_RE.search(text)
            if match:
                ids = _split_ids(match.group(1))
                whole_file.update(ids)
                mentions.extend((number, rule) for rule in ids)
                continue
            match = _NOQA_RE.search(text)
            if match:
                ids = _split_ids(match.group(1))
                per_line[number] = frozenset(ids)
                mentions.extend((number, rule) for rule in ids)
        return per_line, frozenset(whole_file), mentions

    def suppressed(self, finding: Finding) -> bool:
        if finding.rule in self.file_suppressions:
            return True
        return finding.rule in self.line_suppressions.get(finding.line, ())

    def line_text(self, number: int) -> str:
        if 1 <= number <= len(self.lines):
            return self.lines[number - 1]
        return ""


# ----------------------------------------------------------------------
# Discovery and the pass itself
# ----------------------------------------------------------------------
def discover_files(paths: Iterable[Path | str]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.update(
                candidate
                for candidate in path.rglob("*.py")
                if "__pycache__" not in candidate.parts
            )
        elif path.suffix == ".py":
            found.add(path)
    return sorted(found)


def _resolve_rules(rules: Optional[Sequence[str]]) -> list[RegisteredRule]:
    names = registered_rules() if rules is None else tuple(rules)
    return [rule_info(name) for name in names]


def check_file(
    path: Path | str,
    *,
    rules: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
    source: Optional[str] = None,
) -> list[Finding]:
    """Run ``rules`` (default: all) over one file.

    Returns surviving findings — suppressed ones are dropped, and
    severities are filled in from the rule defaults.  Syntax errors
    surface as a single ``error`` finding instead of raising, so one
    broken file cannot hide the rest of the report.
    """
    path = Path(path)
    text = source if source is not None else path.read_text(encoding="utf-8")
    selected = _resolve_rules(rules)
    try:
        context = AnalysisContext(path, text, root=root)
    except SyntaxError as error:
        return [
            Finding(
                rule="parse-error",
                path=AnalysisContext._relative(path, root),
                line=error.lineno or 1,
                message=f"file does not parse: {error.msg}",
                severity="error",
            )
        ]
    findings: list[Finding] = []
    for rule in selected:
        for finding in rule.check(context):
            if finding.severity is None:
                finding = finding.replace(severity=rule.default_severity)
            if not context.suppressed(finding):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings


def check_paths(
    paths: Iterable[Path | str],
    *,
    rules: Optional[Sequence[str]] = None,
    root: Optional[Path] = None,
) -> list[Finding]:
    """Run the pass over files and directories; see :func:`check_file`."""
    findings: list[Finding] = []
    for path in discover_files(paths):
        findings.extend(check_file(path, rules=rules, root=root))
    return findings


# ----------------------------------------------------------------------
# Mechanical fixes
# ----------------------------------------------------------------------
def apply_fixes(findings: Iterable[Finding], *, root: Optional[Path] = None) -> int:
    """Apply the whole-line replacements carried by fixable findings.

    Returns the number of lines rewritten.  At most one fix is applied
    per physical line per pass (a second ``repro check --fix`` run
    converges — the suite pins this as idempotence).
    """
    by_file: dict[str, dict[int, str]] = {}
    paths: dict[str, Path] = {}
    for finding in findings:
        if finding.fix is None:
            continue
        line, replacement = finding.fix
        slot = by_file.setdefault(finding.path, {})
        if line not in slot:  # first fix on a line wins this pass
            slot[line] = replacement
            base = Path(finding.path)
            paths[finding.path] = base if base.is_absolute() or root is None \
                else root / base
    fixed = 0
    for relpath, replacements in by_file.items():
        target = paths[relpath]
        text = target.read_text(encoding="utf-8")
        trailing_newline = text.endswith("\n")
        lines = text.splitlines()
        for number, replacement in replacements.items():
            if 1 <= number <= len(lines):
                lines[number - 1] = replacement
                fixed += 1
        body = "\n".join(lines) + ("\n" if trailing_newline else "")
        target.write_text(body, encoding="utf-8")
    return fixed


def iter_findings_by_file(
    findings: Iterable[Finding],
) -> Iterator[tuple[str, list[Finding]]]:
    """Group findings by path, preserving the sorted order."""
    grouped: dict[str, list[Finding]] = {}
    for finding in findings:
        grouped.setdefault(finding.path, []).append(finding)
    for path in sorted(grouped):
        yield path, grouped[path]
