"""The committed findings baseline — grandfathered debt, made explicit.

``analysis/baseline.json`` records findings that are acknowledged but
deliberately not fixed (hand-tuned hot-loop code the golden suite
pins bit-exactly, historical key layouts, …).  Every entry carries a
``why`` justification; ``repro check`` subtracts baselined findings
from its report and fails if the baseline has gone *stale* (an entry
whose finding no longer exists — delete it, don't let the file rot).

Entries are matched by **fingerprint**, not line number: the SHA-256
of ``(path, rule, stripped source line text, occurrence index among
identical lines)``.  Inserting code above a baselined finding moves
its line but not its fingerprint; editing the offending line retires
the entry.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Iterable, Optional

from repro.analysis.registry import Finding
from repro.render import json_text

#: baseline file layout version
BASELINE_SCHEMA = 1

#: default location, relative to the repository root
BASELINE_PATH = Path("analysis") / "baseline.json"


def finding_fingerprint(finding: Finding, line_text: str, occurrence: int) -> str:
    """Stable identity of one finding (line-number independent)."""
    blob = "\0".join(
        (finding.path, finding.rule, line_text.strip(), str(occurrence))
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def fingerprint_findings(
    findings: Iterable[Finding],
    line_text_for: "callable",
) -> list[tuple[Finding, str]]:
    """Pair each finding with its fingerprint.

    ``line_text_for(path, line)`` must return the source line text.
    Occurrence indices disambiguate identical (path, rule, text)
    triples — two unseeded ``random.Random()`` on textually equal
    lines baseline independently.
    """
    counts: dict[tuple[str, str, str], int] = {}
    paired: list[tuple[Finding, str]] = []
    for finding in findings:
        text = line_text_for(finding.path, finding.line).strip()
        key = (finding.path, finding.rule, text)
        occurrence = counts.get(key, 0)
        counts[key] = occurrence + 1
        paired.append((finding, finding_fingerprint(finding, text, occurrence)))
    return paired


@dataclasses.dataclass(frozen=True)
class BaselineEntry:
    fingerprint: str
    rule: str
    path: str
    why: str
    line_text: str = ""


class Baseline:
    """An in-memory baseline: lookup by fingerprint plus staleness."""

    def __init__(self, entries: Iterable[BaselineEntry] = ()) -> None:
        self.entries = {entry.fingerprint: entry for entry in entries}

    def __len__(self) -> int:
        return len(self.entries)

    def __contains__(self, fingerprint: str) -> bool:
        return fingerprint in self.entries

    def split(
        self, paired: list[tuple[Finding, str]]
    ) -> tuple[list[Finding], list[Finding], list[BaselineEntry]]:
        """(new findings, baselined findings, stale entries)."""
        seen: set[str] = set()
        fresh: list[Finding] = []
        grandfathered: list[Finding] = []
        for finding, fingerprint in paired:
            if fingerprint in self.entries:
                seen.add(fingerprint)
                grandfathered.append(finding)
            else:
                fresh.append(finding)
        stale = [
            entry
            for fingerprint, entry in sorted(self.entries.items())
            if fingerprint not in seen
        ]
        return fresh, grandfathered, stale


def load_baseline(path: Path | str) -> Baseline:
    """Read a baseline file (missing file → empty baseline)."""
    path = Path(path)
    if not path.exists():
        return Baseline()
    document = json.loads(path.read_text(encoding="utf-8"))
    schema = document.get("schema")
    if schema != BASELINE_SCHEMA:
        raise ValueError(
            f"{path}: baseline schema {schema!r} is not {BASELINE_SCHEMA}"
        )
    entries = []
    for record in document.get("findings", []):
        entries.append(
            BaselineEntry(
                fingerprint=record["fingerprint"],
                rule=record["rule"],
                path=record["path"],
                why=record.get("why", ""),
                line_text=record.get("line_text", ""),
            )
        )
    return Baseline(entries)


def write_baseline(
    path: Path | str,
    paired: list[tuple[Finding, str]],
    line_text_for: "callable",
    *,
    existing: Optional[Baseline] = None,
) -> int:
    """Write (or extend) a baseline covering ``paired`` findings.

    Justifications from ``existing`` entries are preserved; new
    entries get a placeholder ``why`` that reviewers must replace.
    Returns the number of entries written.
    """
    path = Path(path)
    records = []
    for finding, fingerprint in paired:
        prior = existing.entries.get(fingerprint) if existing else None
        records.append(
            {
                "fingerprint": fingerprint,
                "rule": finding.rule,
                "path": finding.path,
                "line_text": line_text_for(finding.path, finding.line).strip(),
                "why": prior.why if prior and prior.why else "TODO: justify",
            }
        )
    records.sort(key=lambda r: (r["path"], r["rule"], r["fingerprint"]))
    document = {"schema": BASELINE_SCHEMA, "findings": records}
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json_text(document), encoding="utf-8")
    return len(records)
