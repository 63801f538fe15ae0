"""Content-addressed on-disk store for simulation artifacts.

Layout: ``<root>/<key>.json``, one artifact per task key (see
:func:`repro.orchestration.serialize.task_key`), all in one flat
directory.  Every file is a small JSON envelope::

    {"schema": 1, "kind": "group", "key": "...", "meta": {...},
     "payload": {...}}

``meta`` holds human-readable task fields (group, policy, benchmark,
geometry) so the store can be inspected with ``jq`` or ``repro
report``; ``payload`` is the serialised result.

The artifact files are the store's only state.  There is no index
beside them to drift out of step: whether a key is present is
answered by reading its artifact (:meth:`ResultStore.probe`), so a
damaged artifact is a miss wherever it is looked at.

Durability rules:

* writes are atomic (temp file + ``os.replace``), so a killed writer
  never leaves a half-written artifact behind, only a dotted
  ``.<key>.json.<pid>.tmp`` file that no reader takes for an artifact
  and :meth:`ResultStore.clean` removes; concurrent workers that race
  on the same deterministic task simply replace each other's identical
  bytes;
* reads treat *any* malformed artifact (truncated JSON, wrong schema,
  missing payload, or a payload its reader cannot decode) as a cache
  miss and delete the file, so a corrupted store heals itself on the
  next run instead of crashing every subsequent invocation.

A store in the older sharded layout (two-hex-character ``<root>/<xx>/``
directories, each with an index file) is not read: its artifacts are
recomputed, not migrated, and :meth:`ResultStore.clean` removes the
old directories.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

from repro.obs import builtin as obs_metrics
from repro.obs.trace import timed
from repro.orchestration.serialize import SCHEMA_VERSION

#: environment variable overriding the default store location
STORE_ENV = "REPRO_STORE"

#: a shard directory of the older sharded layout
_LEGACY_SHARD = re.compile(r"[0-9a-f]{2}")


def default_store_path() -> Path:
    """``$REPRO_STORE`` if set, else ``.repro/store`` under the cwd."""
    return Path(os.environ.get(STORE_ENV) or Path(".repro") / "store")


def _is_artifact(name: str) -> bool:
    """Whether a directory entry is an artifact (temp files are dotted)."""
    return name.endswith(".json") and not name.startswith(".")


def _names(directory: Path) -> list[str]:
    """The entry names of ``directory``, or none when it does not exist."""
    try:
        return os.listdir(directory)
    except OSError:
        return []


class ResultStore:
    """A directory of content-addressed, schema-versioned artifacts."""

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    def path_for(self, key: str) -> Path:
        """Where the artifact for ``key`` lives (whether or not it exists)."""
        return self.root / f"{key}.json"

    def get(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or None on miss/corruption.

        A corrupt artifact is removed so the caller recomputes and
        rewrites it; losing one cache entry is always safe because
        every artifact is reproducible from its task description.
        """
        envelope = self.get_envelope(key)
        return None if envelope is None else envelope["payload"]

    def get_envelope(self, key: str) -> dict[str, Any] | None:
        """The full artifact envelope (``kind``/``meta``/``payload``)
        for ``key``, or None on miss/corruption.

        Same healing contract as :meth:`get`: malformed artifacts are
        discarded, transient I/O trouble is a plain miss.
        """
        return self._read(key)

    def _read(
        self, key: str, decode: Callable[[dict[str, Any]], Any] | None = None
    ) -> Any:
        """The envelope for ``key`` — or, given ``decode``, the value
        ``decode(payload)`` — or None on miss/corruption.

        ``decode`` runs inside the healing ``try``: a payload it
        rejects (``KeyError``/``TypeError``/``ValueError``, e.g. a
        valid envelope around ``"payload": {}``) is discarded like a
        malformed envelope, so a result reader
        (:meth:`repro.sim.runner.ExperimentRunner.cached`) sees a miss
        and recomputes instead of raising on every later read.

        Every read comes through here, so each is one ``store.get``
        span and one ``repro_store_get_seconds`` sample.
        """
        path = self.path_for(key)
        with timed("store.get", obs_metrics.STORE_GET_SECONDS, cat="store"):
            try:
                with open(path, "rb") as handle:
                    raw = handle.read()
                envelope = json.loads(raw)
                if envelope["schema"] != SCHEMA_VERSION:
                    raise ValueError(f"schema {envelope['schema']} != {SCHEMA_VERSION}")
                payload = envelope["payload"]  # malformed without one
                return envelope if decode is None else decode(payload)
            except FileNotFoundError:
                return None
            except OSError:
                # Transient I/O trouble (EMFILE, NFS hiccups) is a miss,
                # not corruption — keep the artifact for the next read.
                return None
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                self._discard(path)
                return None

    def probe(self, key: str) -> bool:
        """Whether ``key`` holds a valid artifact.

        A full read (:meth:`get_envelope`): the artifact is the only
        record of itself, so a damaged one heals into a miss here as
        on every other read.
        """
        return self.get_envelope(key) is not None

    # ------------------------------------------------------------------
    def put(
        self,
        key: str,
        payload: dict[str, Any],
        kind: str,
        meta: dict[str, Any] | None = None,
    ) -> Path:
        """Atomically persist ``payload`` under ``key``; returns the path."""
        return self.put_many([(key, payload, kind, meta)])[0]

    def put_many(
        self,
        artifacts: Iterable[tuple[str, dict[str, Any], str, dict[str, Any] | None]],
    ) -> list[Path]:
        """Atomically persist a batch of ``(key, payload, kind, meta)``
        artifacts; returns their paths.

        The root directory is made once per batch; each artifact is
        written to a sibling temp file and renamed into place, so a
        reader sees either the whole artifact or none.
        """
        with timed(
            "store.put", obs_metrics.STORE_PUT_SECONDS, cat="store",
            counts={"artifacts": obs_metrics.STORE_ARTIFACTS_WRITTEN},
        ) as span:
            self.root.mkdir(parents=True, exist_ok=True)
            paths: list[Path] = []
            for key, payload, kind, meta in artifacts:
                path = self.path_for(key)
                envelope = {
                    "schema": SCHEMA_VERSION,
                    "kind": kind,
                    "key": key,
                    "meta": meta or {},
                    "payload": payload,
                }
                blob = json.dumps(
                    envelope, separators=(",", ":"), sort_keys=True
                ).encode("utf-8")
                temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
                with open(temporary, "wb") as handle:
                    handle.write(blob)
                os.replace(temporary, path)
                paths.append(path)
            span["artifacts"] = len(paths)
        return paths

    # ------------------------------------------------------------------
    def keys(self) -> Iterator[str]:
        """Keys of every artifact on disk, sorted."""
        return iter(sorted(
            name[: -len(".json")] for name in _names(self.root) if _is_artifact(name)
        ))

    def count(self) -> int:
        """Number of artifacts on disk."""
        return sum(1 for _ in self.keys())

    def clean(self) -> int:
        """Delete every artifact; returns how many were removed.

        Also sweeps up the ``.tmp`` leftovers of writers killed
        between dump and rename, and the shard directories of the
        older sharded layout with everything the store wrote into
        them (their artifacts count as removed).  Files the store did
        not write are left in place.
        """
        removed = 0
        for name in _names(self.root):
            path = self.root / name
            if _is_artifact(name):
                self._discard(path)
                removed += 1
            elif name.startswith(".") and name.endswith(".tmp"):
                self._discard(path)
            elif _LEGACY_SHARD.fullmatch(name) and path.is_dir():
                for entry in _names(path):
                    if _is_artifact(entry):
                        removed += 1
                    if _is_artifact(entry) or entry.startswith("."):
                        self._discard(path / entry)
                try:
                    path.rmdir()
                except OSError:
                    pass  # stray non-store files: leave the directory
        return removed

    @staticmethod
    def _discard(path: Path) -> None:
        try:
            path.unlink()
        except OSError:
            pass
