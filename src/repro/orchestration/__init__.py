"""Sweep orchestration: durable results, the warm pool, CLI.

This package turns the in-process :class:`~repro.sim.runner.
ExperimentRunner` into a batch system in four layers:

* :mod:`~repro.orchestration.serialize` — lossless JSON round-trips
  for run artifacts and stable content-addressed task keys;
* :mod:`~repro.orchestration.store` — the on-disk
  :class:`ResultStore` (one flat directory of atomically written
  artifacts, self-healing on corruption);
* :mod:`~repro.orchestration.pools` — where tasks run: the
  :class:`WarmPool` of persistent worker processes, the
  :class:`PoolTask`/:class:`PoolResult` values it carries and the
  backend selection;
* :mod:`~repro.orchestration.executor` — the :class:`SweepExecutor`,
  the one object that fans specs out: it owns the store, the engine
  pin and the pool, plans (group × scheme × geometry) tasks against
  the store, shards them across the pool (or runs them inline for the
  ``serial`` backend) and reads the results back with
  :meth:`SweepExecutor.sweep`.

:mod:`~repro.orchestration.cli` exposes all of it as the ``repro``
console script (``python -m repro`` from a source checkout).
"""

from repro.orchestration.executor import SweepExecutor, resolve_jobs
from repro.orchestration.pools import (
    PoolResult,
    PoolTask,
    SweepTaskError,
    WarmPool,
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
    "PoolResult",
    "PoolTask",
    "ResultStore",
    "SweepExecutor",
    "SweepTaskError",
    "WarmPool",
    "alone_task_key",
    "default_store_path",
    "group_task_key",
    "resolve_jobs",
    "task_key",
]
