"""Sweep orchestration: durable results, pluggable pools, a daemon, CLI.

This package turns the in-process :class:`~repro.sim.runner.
ExperimentRunner` into a batch system in four layers:

* :mod:`~repro.orchestration.serialize` — lossless JSON round-trips
  for run artifacts and stable content-addressed task keys;
* :mod:`~repro.orchestration.store` — the on-disk
  :class:`ResultStore` (one flat directory of atomically written
  artifacts, self-healing on corruption);
* :mod:`~repro.orchestration.pools` — where tasks run: the two
  :class:`Pool` classes (``warm`` persistent workers, ``ssh`` remote
  fan-out) plus the wire types they share;
* :mod:`~repro.orchestration.executor` — the :class:`SweepExecutor`
  planning (group × scheme × geometry) tasks against the store and
  sharding them across a pool, or running them inline for the
  ``serial`` backend, and :func:`orchestrated_runner`, the one-liner
  that wires a runner to both.

:mod:`~repro.orchestration.serve` runs it as a service — the
``repro serve`` HTTP job queue (see ``docs/distributed.md``) — and
:mod:`~repro.orchestration.cli` exposes all of it as the ``repro``
console script (``python -m repro`` from a source checkout).
"""

from repro.orchestration.executor import (
    SweepExecutor,
    orchestrated_runner,
    resolve_jobs,
)
from repro.orchestration.pools import (
    Pool,
    PoolResult,
    PoolTask,
    SSHPool,
    SweepTaskError,
    WarmPool,
    resolve_pool,
)
from repro.orchestration.serialize import (
    SCHEMA_VERSION,
    alone_task_key,
    group_task_key,
    task_key,
)
from repro.orchestration.store import ResultStore, default_store_path

__all__ = [
    "SCHEMA_VERSION",
    "Pool",
    "PoolResult",
    "PoolTask",
    "ResultStore",
    "SSHPool",
    "SweepExecutor",
    "SweepTaskError",
    "WarmPool",
    "alone_task_key",
    "default_store_path",
    "group_task_key",
    "orchestrated_runner",
    "resolve_jobs",
    "resolve_pool",
    "task_key",
]
