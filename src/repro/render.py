"""The writers every ``repro`` command prints through: fixed-width
tables, CSV and JSON.  A table's layout lives in its column list and
nowhere else."""

from __future__ import annotations

import json
from typing import Any, Iterable, NamedTuple, Sequence


class Column(NamedTuple):
    """One :func:`table` column: its title, the alignment and width
    that the title and every cell share (``"<8"``, ``">14"``; ``""``
    leaves it unpadded), and the format spec of its cells (``".3f"``)."""

    title: str
    pad: str = ""
    cell: str = ""


def table(
    columns: Sequence[Column], rows: Iterable[Sequence[Any]], *,
    sep: str = "", rule: bool = False,
) -> str:
    """The column titles, a ``-`` rule as wide as them if ``rule``, then
    one line per row; no closing newline.  Nothing is truncated: a wide
    value widens its own line."""
    header = sep.join(format(column.title, column.pad) for column in columns)
    lines = [header, "-" * len(header)] if rule else [header]
    for row in rows:
        lines.append(sep.join(
            format(value, column.pad + column.cell)
            for column, value in zip(columns, row)
        ))
    return "\n".join(lines)


def csv_text(header: Sequence[str], rows: Iterable[Sequence[Any]]) -> str:
    """The header, then one line per row, unquoted; floats are written
    with ``repr`` so they read back exactly, everything else with
    ``str``.  No closing newline."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(
            repr(value) if isinstance(value, float) else str(value) for value in row
        ))
    return "\n".join(lines)


def json_text(document: Any) -> str:
    """``document`` as indented, key-sorted JSON with a closing newline."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"
