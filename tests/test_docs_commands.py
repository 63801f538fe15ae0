"""Docs drift: every ``repro <subcommand>`` that README.md and docs/
show names a subcommand the CLI parser actually has."""

import argparse
import re
from pathlib import Path

import pytest

from repro.orchestration.cli import build_parser

ROOT = Path(__file__).resolve().parent.parent
DOCUMENTS = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md"))]

#: ``repro WORD`` opening inline code, a ``$ repro WORD`` console
#: line, or ``python -m repro WORD``
COMMAND = re.compile(r"(?:`|^\$ |python -m )repro ([a-z][a-z-]*)", re.MULTILINE)


def _subcommands() -> set[str]:
    (commands,) = (
        action for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return set(commands.choices)


@pytest.mark.parametrize(
    "document", DOCUMENTS, ids=lambda path: str(path.relative_to(ROOT))
)
def test_documented_subcommands_exist(document):
    subcommands = _subcommands()
    text = document.read_text(encoding="utf-8")
    stale = [
        f"line {text.count(chr(10), 0, match.start()) + 1}: repro {match.group(1)}"
        for match in COMMAND.finditer(text)
        if match.group(1) not in subcommands
    ]
    assert not stale, f"no such subcommand ({sorted(subcommands)}): {stale}"


def test_the_pattern_sees_the_documented_commands():
    """The drift check reads something: the README's quick start alone
    shows ``repro sweep`` and ``repro report``."""
    found = {match.group(1) for match in COMMAND.finditer(
        (ROOT / "README.md").read_text(encoding="utf-8")
    )}
    assert {"sweep", "report"} <= found
