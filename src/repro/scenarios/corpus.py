"""The committed scenario corpus: schema-versioned specs, eager loads.

``src/repro/scenarios/corpus/`` holds one JSON spec file per named
scenario (written by :func:`repro.scenarios.generate.write_corpus`).
This module is the read side: every file is validated **eagerly** at
load time — schema version, document fields, every event, machine
fit and benchmark names — and any problem raises :class:`CorpusError`
naming the offending file (and event index, where one is at fault)
so a corrupt corpus never propagates into a suite run silently.

The corpus is data, not code: adding a scenario means committing one
more spec file (see ``docs/scenarios.md``, "Adding a named scenario"),
and everything downstream — ``repro scenario --suite``, the
differential harness, the golden corpus fixture — picks it up by name.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from repro.scenarios.generate import CORPUS_SCHEMA
from repro.scenarios.model import Scenario


class CorpusError(ValueError):
    """A corpus spec file failed eager validation (the message names
    the offending file, and the offending event where one is at
    fault)."""


#: required document fields and their types
_REQUIRED_FIELDS = {
    "schema": int,
    "name": str,
    "shape": str,
    "n_cores": int,
    "seed": int,
    "window_start_cycles": int,
    "horizon_cycles": int,
    "scenario": dict,
}

@dataclasses.dataclass(frozen=True)
class CorpusEntry:
    """One validated corpus scenario plus its spec metadata."""

    name: str
    shape: str
    n_cores: int
    seed: int
    window_start_cycles: int
    horizon_cycles: int
    scenario: Scenario
    path: Path


def corpus_dir() -> Path:
    """The committed corpus directory inside the installed package."""
    return Path(__file__).parent / "corpus"


def _fail(path: Path, message: str) -> CorpusError:
    return CorpusError(f"corpus spec {path}: {message}")


def load_spec(path: str | Path) -> CorpusEntry:
    """Load and eagerly validate one corpus spec file."""
    path = Path(path)
    try:
        data = json.loads(path.read_text())
    except OSError as error:
        raise _fail(path, f"unreadable: {error}") from error
    except json.JSONDecodeError as error:
        raise _fail(path, f"not valid JSON: {error}") from error
    if not isinstance(data, dict):
        raise _fail(path, f"must be a JSON object, got {type(data).__name__}")
    for field, expected in _REQUIRED_FIELDS.items():
        if field not in data:
            raise _fail(path, f"missing field {field!r}")
        if not isinstance(data[field], expected) or isinstance(
            data[field], bool
        ):
            raise _fail(
                path,
                f"field {field!r} must be {expected.__name__}, got "
                f"{data[field]!r}",
            )
    if data["schema"] != CORPUS_SCHEMA:
        raise _fail(
            path,
            f"schema version {data['schema']} is not the supported "
            f"version {CORPUS_SCHEMA}; regenerate the corpus with "
            f"`python -m repro.scenarios.generate`",
        )
    # Imported here: the serializer imports this package.
    from repro.orchestration.serialize import scenario_from_dict

    try:
        scenario = scenario_from_dict(data["scenario"])
        scenario.validate(data["n_cores"])
    except ValueError as error:
        raise _fail(path, str(error)) from error
    from repro.workloads.profiles import BENCHMARK_PROFILES

    unknown = [
        benchmark
        for benchmark in scenario.benchmarks_used()
        if benchmark not in BENCHMARK_PROFILES
    ]
    if unknown:
        raise _fail(
            path, f"unknown benchmark(s): {', '.join(sorted(unknown))}"
        )
    if data["name"] != path.stem:
        raise _fail(
            path, f"spec name {data['name']!r} does not match the filename"
        )
    return CorpusEntry(
        name=data["name"],
        shape=data["shape"],
        n_cores=data["n_cores"],
        seed=data["seed"],
        window_start_cycles=data["window_start_cycles"],
        horizon_cycles=data["horizon_cycles"],
        scenario=scenario,
        path=path,
    )


def load_corpus(directory: str | Path | None = None) -> dict[str, CorpusEntry]:
    """Load the whole corpus, keyed by scenario name, in name order.

    Every file is validated eagerly; the first invalid file fails the
    load with a :class:`CorpusError` naming it.
    """
    directory = Path(directory) if directory is not None else corpus_dir()
    if not directory.is_dir():
        raise CorpusError(f"corpus directory {directory} does not exist")
    entries: dict[str, CorpusEntry] = {}
    for path in sorted(directory.glob("*.json")):
        entry = load_spec(path)
        if entry.name in entries:
            raise _fail(path, f"duplicate scenario name {entry.name!r}")
        entries[entry.name] = entry
    if not entries:
        raise CorpusError(f"corpus directory {directory} holds no spec files")
    return entries


def corpus_names(directory: str | Path | None = None) -> tuple[str, ...]:
    """Every corpus scenario name, sorted."""
    return tuple(load_corpus(directory))


def corpus_scenario(
    name: str, directory: str | Path | None = None
) -> CorpusEntry:
    """One corpus entry by name; unknown names list what exists."""
    entries = load_corpus(directory)
    try:
        return entries[name]
    except KeyError:
        raise CorpusError(
            f"unknown corpus scenario {name!r}; the corpus holds: "
            f"{', '.join(entries)}"
        ) from None
