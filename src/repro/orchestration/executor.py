"""Sweep execution over the result store and a pluggable pool.

A sweep is a set of independent :class:`~repro.experiment.Experiment`
specs — each spec touches no shared mutable state — so the executor
shards them across a :class:`~repro.orchestration.pools.Pool` backend
and lets the store mediate all communication: a worker simulates its
spec with a private store-backed
:class:`~repro.sim.runner.ExperimentRunner`, persists the artifact
under :meth:`Experiment.task_key`, and reports only the spec's label
and wall time.  The parent then assembles the figure tables entirely
from cache hits, which guarantees the numbers are bit-identical to a
serial in-process run — on every backend.

Where tasks run is the pool's business (see
:mod:`repro.orchestration.pools`): ``warm`` persistent workers by
default, ``ssh`` remote fan-out, or ``serial`` inline.  Every pool
persists across phases and :meth:`SweepExecutor.prefetch` calls —
reuse one executor (it is a context manager) to amortise worker
start-up and per-worker trace caches across waves of a large sweep.

Scheduling is two-phase with per-spec dependency gating:

1. **alone runs** — every spec's :meth:`Experiment.
   alone_dependencies` (group members for weighted speedup, arrival
   benchmarks for profile-driven schemes) plus any alone specs passed
   directly — scheduling them first means no main task ever
   duplicates one;
2. **main runs** — the group and scenario specs themselves.  A main
   spec is submitted as soon as *its own* alone dependencies have
   completed (no global barrier between the phases), so main work
   overlaps the tail of the slowest alone runs.

Planning is probe-based: :meth:`SweepExecutor.plan` asks the store
whether each key is present via :meth:`ResultStore.probe` — one index
lookup plus one ``stat``, no payload parse — so a fully-cached resume
costs O(index read) regardless of artifact size or count.

An ``engine`` pin (``SweepExecutor(engine=...)``) propagates the
parent's resolved execution backend to every worker, so a sharded
sweep times the same engine a serial run would.

Third-party policies keep working under sharding: each task carries
the module that registered its policy class, and the worker imports
that module first (re-running the ``@register_policy`` decorator in
the child, which matters under the ``spawn`` start method and on
remote hosts).  Specs whose policy class was registered in
``__main__`` — a script or notebook that never packaged the module —
cannot be rebuilt in a worker at all, so those run inline in the
parent instead of in the pool.

Determinism: every task's randomness flows from
``SystemConfig.seed`` through the trace generator and policies, never
from worker identity or execution order, so a sweep produces the
same artifacts regardless of sharding, and a resumed sweep skips
completed tasks by key without changing any result.
"""

from __future__ import annotations

import os
import time
from typing import Callable, Iterable

from repro.experiment import Experiment
from repro.obs import builtin as obs_metrics
from repro.obs.metrics import metrics_enabled
from repro.obs.trace import recorder as obs_recorder
from repro.orchestration import pools
from repro.orchestration.pools import PoolTask, SweepTaskError
from repro.orchestration.store import ResultStore, default_store_path
from repro.sim.config import SystemConfig
from repro.sim.runner import ExperimentRunner

#: environment variable bounding worker-process count
JOBS_ENV = "REPRO_JOBS"


def resolve_jobs(max_workers: int | None = None) -> int:
    """Worker count: explicit argument, else ``$REPRO_JOBS``, else cores.

    Raises :class:`ValueError` naming ``$REPRO_JOBS`` when it is set
    but not an integer; the CLI turns that into a clean exit.
    """
    if max_workers is not None and max_workers > 0:
        return max_workers
    env = os.environ.get(JOBS_ENV)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"${JOBS_ENV} must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def orchestrated_runner(
    store_path: str | os.PathLike | None = None,
    max_workers: int | None = None,
) -> ExperimentRunner:
    """A runner wired to the on-disk store and the worker pool.

    The one-liner the examples and benchmark harness use: results
    persist under :func:`~repro.orchestration.store.default_store_path`
    (override with ``store_path`` or ``$REPRO_STORE``) and sweeps fan
    out across :func:`resolve_jobs` workers.
    """
    store = ResultStore(store_path if store_path is not None else default_store_path())
    return ExperimentRunner(store=store, max_workers=resolve_jobs(max_workers))


def _policy_module(experiment: Experiment) -> str:
    """The module whose import registers this spec's policy class."""
    return experiment.policy.info.cls.__module__


def _governor_module(experiment: Experiment) -> str | None:
    """The module registering this spec's governor class (None when
    the spec carries no governor)."""
    if experiment.governor is None:
        return None
    return experiment.governor.info.cls.__module__


def _pool_safe(experiment: Experiment) -> bool:
    """Whether a worker process can rebuild this spec's policy and
    governor classes (``__main__`` registrations exist only in the
    parent)."""
    return (
        _policy_module(experiment) != "__main__"
        and _governor_module(experiment) != "__main__"
    )


class SweepExecutor:
    """Shards experiment specs across a pool of workers.

    ``progress`` (optional) receives one human-readable line per
    completed task — ``[done/total] label (seconds, backend)`` — the
    CLI points it at stderr.  ``engine`` (optional) pins the
    execution backend every task runs on — workers and inline parent
    runs alike; it is resolved eagerly so an unavailable explicit
    engine fails here, once, instead of in every worker.  ``pool``
    selects the execution backend (``warm``/``ssh``/``serial``;
    default ``$REPRO_POOL`` or ``warm``) and ``hosts`` feeds the ssh
    pool; both are validated eagerly too.

    Pools are persistent: the executor keeps one instance alive
    across :meth:`prefetch` calls and closes it in :meth:`close` (or
    on ``with`` exit).  Exiting the process without
    closing is safe — workers are daemonic — but closing promptly
    releases them.
    """

    def __init__(
        self,
        store: ResultStore,
        max_workers: int | None = None,
        runner: ExperimentRunner | None = None,
        progress: Callable[[str], None] | None = None,
        engine: str | None = None,
        pool: str | None = None,
        hosts: "Iterable[str] | str | None" = None,
    ) -> None:
        from repro.engine import resolve_engine

        self.store = store
        self.max_workers = resolve_jobs(max_workers)
        #: assembles final results; shares the same store, so every
        #: artifact a worker persists is a cache hit here
        self.runner = runner if runner is not None else ExperimentRunner(store=store)
        self.progress = progress
        #: resolved backend name, or None to let each run pick its own
        self.engine = None if engine is None else resolve_engine(engine)
        #: resolved pool backend + host list (fails fast on bad input)
        self.pool_name, self.hosts = pools.resolve_pool_name(pool, hosts)
        self._pool: pools.Pool | None = None

    # ------------------------------------------------------------------
    # Pool lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the persistent pool's workers; idempotent."""
        if self._pool is not None:
            self._pool.close()
            self._pool = None

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Task planning
    # ------------------------------------------------------------------
    def _bucket(
        self, tasks: Iterable[Experiment]
    ) -> tuple[dict[str, Experiment], dict[str, Experiment]]:
        """Distinct (alone, main) specs keyed by task key, dependencies
        included."""
        alone: dict[str, Experiment] = {}
        main: dict[str, Experiment] = {}
        for experiment in tasks:
            bucket = alone if experiment.kind == "alone" else main
            bucket.setdefault(experiment.task_key(), experiment)
            for dependency in experiment.alone_dependencies():
                alone.setdefault(dependency.task_key(), dependency)
        return alone, main

    def plan(
        self, tasks: Iterable[Experiment]
    ) -> tuple[list[Experiment], list[Experiment], int]:
        """Split ``tasks`` into pending (alone-phase, main-phase) specs
        plus the total number of distinct task keys involved.

        Presence is decided by :meth:`ExperimentRunner.probe` — an
        index lookup and a ``stat`` per key, no payload parse — so
        planning a fully-cached thousand-task sweep is O(index read).
        A corrupt artifact that survives the size check surfaces at
        assembly time instead, where the store heals it and the
        runner recomputes inline.
        """
        alone, main = self._bucket(tasks)
        total = len(alone) + len(main)
        alone_pending = [
            experiment
            for experiment in alone.values()
            if not self.runner.probe(experiment)
        ]
        main_pending = [
            experiment
            for experiment in main.values()
            if not self.runner.probe(experiment)
        ]
        return alone_pending, main_pending, total

    def plan_report(
        self, tasks: Iterable[Experiment]
    ) -> list[tuple[Experiment, bool]]:
        """The full planned task list with per-task store status.

        Returns ``(experiment, cached)`` pairs in execution order —
        alone-phase dependencies first, then the main specs — without
        running anything or parsing any artifact.  ``repro sweep
        --dry-run`` renders this; on a warm store it is near-instant.
        """
        alone, main = self._bucket(tasks)
        return [
            (experiment, self.runner.probe(experiment))
            for experiment in (*alone.values(), *main.values())
        ]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def prefetch(self, tasks: Iterable[Experiment]) -> tuple[int, int]:
        """Materialise artifacts for ``tasks`` (and their alone deps).

        Returns ``(computed, cached)`` task counts, alone runs
        included.  Safe to call with everything already cached — a
        resumed sweep costs one index probe per task.
        """
        alone_pending, main_pending, total = self.plan(tasks)
        computed = len(alone_pending) + len(main_pending)
        rec = obs_recorder()
        token = (
            rec.begin(
                "sweep", cat="sweep", tasks=total, pending=computed,
                backend=self.pool_name,
            )
            if rec.enabled
            else -1
        )
        try:
            self._run_phases(alone_pending, main_pending)
        finally:
            rec.end(token, cached=total - computed)
        return computed, total - computed

    def prefetch_alone(
        self, config: SystemConfig, benchmarks: Iterable[str]
    ) -> tuple[int, int]:
        """Materialise alone runs for ``benchmarks``; ``(computed, cached)``."""
        return self.prefetch(
            Experiment.alone_run(benchmark, system=config)
            for benchmark in dict.fromkeys(benchmarks)
        )

    def alone_many(self, config: SystemConfig, benchmarks: Iterable[str]) -> dict:
        """Alone runs for ``benchmarks`` in parallel, keyed by name."""
        benchmarks = list(dict.fromkeys(benchmarks))
        self.prefetch_alone(config, benchmarks)
        return {b: self.runner.alone(b, config) for b in benchmarks}

    # ------------------------------------------------------------------
    def _run_phases(
        self, alone: list[Experiment], main: list[Experiment]
    ) -> None:
        """Run both scheduling phases with per-spec dependency gating.

        Alone runs are mutually independent, so all of them fan out
        immediately.  A main spec launches the moment *its own*
        pending alone dependencies land — not behind a global
        alone-phase barrier — so main work overlaps the tail of the
        slowest alone runs.  Scheduling affects wall-clock only:
        every task persists under its key and assembly reads the same
        artifacts a serial run produces.

        Specs whose policy class lives in ``__main__`` cannot be
        rebuilt by a worker and run inline in the parent: inline
        alone specs first (they may unblock pooled main specs),
        inline main specs after the pool drains (by which point every
        alone dependency exists in the store).
        """
        total = len(alone) + len(main)
        if not total:
            return
        pooled_alone = [e for e in alone if _pool_safe(e)]
        pooled_main = [e for e in main if _pool_safe(e)]
        pooled = len(pooled_alone) + len(pooled_main)
        workers = min(self.max_workers, pooled)
        if (
            self.pool_name == pools.SERIAL
            or not pooled
            or (self.pool_name == pools.WARM and workers <= 1)
        ):
            # Inline fallback: alone-then-main order satisfies every
            # dependency by construction.
            done = 0
            for experiment in (*alone, *main):
                seconds = self._run_inline(experiment)
                done += 1
                self._report(done, total, experiment.label, seconds, pools.SERIAL)
            return
        try:
            self._run_pooled(alone, main, pooled_alone, pooled_main)
        finally:
            # Workers appended to the on-disk index behind our back;
            # the next plan()/probe must see their artifacts.
            self.store.refresh()

    def _run_pooled(
        self,
        alone: list[Experiment],
        main: list[Experiment],
        pooled_alone: list[Experiment],
        pooled_main: list[Experiment],
    ) -> None:
        total = len(alone) + len(main)
        done = 0
        pending_alone = {e.task_key() for e in alone}
        inline_alone = [e for e in alone if not _pool_safe(e)]
        inline_main = [e for e in main if not _pool_safe(e)]
        #: pool-safe main specs gated on alone deps still pending
        blocked: list[tuple[Experiment, set[str]]] = []
        ready_main: list[Experiment] = []
        for experiment in pooled_main:
            deps = {
                d.task_key() for d in experiment.alone_dependencies()
            } & pending_alone
            if deps:
                blocked.append((experiment, deps))
            else:
                ready_main.append(experiment)
        if self._pool is None:
            self._pool = pools.resolve_pool(
                self.pool_name,
                store=self.store,
                max_workers=self.max_workers,
                engine=self.engine,
                hosts=self.hosts,
            )
        pool = self._pool
        metrics_on = metrics_enabled()
        #: task key -> submit instant, for queue-time metrics
        submitted: dict[str, float] = {}

        def note_submit(keys: Iterable[str]) -> None:
            if not metrics_on:
                return
            now = time.perf_counter()
            for key in keys:
                submitted[key] = now
            obs_metrics.POOL_OUTSTANDING.set(pool.outstanding)

        def unblock(key: str) -> None:
            still: list[tuple[Experiment, set[str]]] = []
            for experiment, deps in blocked:
                deps.discard(key)
                if deps:
                    still.append((experiment, deps))
                else:
                    task = PoolTask.from_experiment(experiment)
                    pool.submit(task)
                    note_submit((task.key,))
            blocked[:] = still

        try:
            pool.start()
            batch = [
                PoolTask.from_experiment(e)
                for e in (*pooled_alone, *ready_main)
            ]
            pool.submit_many(batch)
            note_submit(task.key for task in batch)
            for experiment in inline_alone:
                seconds = self._run_inline(experiment)
                done += 1
                self._report(done, total, experiment.label, seconds, pools.SERIAL)
                unblock(experiment.task_key())
            while pool.outstanding:
                result = pool.wait_one()
                if metrics_on:
                    self._observe_completion(
                        result, pool, submitted.pop(result.key, None)
                    )
                if result.error is not None:
                    raise SweepTaskError(
                        result.key, result.label, pool.name, result.error
                    )
                done += 1
                self._report(done, total, result.label, result.seconds, pool.name)
                unblock(result.key)
        except BaseException:
            self.close()
            raise
        for experiment in inline_main:
            seconds = self._run_inline(experiment)
            done += 1
            self._report(done, total, experiment.label, seconds, pools.SERIAL)

    @staticmethod
    def _observe_completion(
        result: pools.PoolResult,
        pool: pools.Pool,
        queued_at: float | None,
    ) -> None:
        """Fold one collected pool task into the metric registry."""
        backend = pool.name
        outcome = "ok" if result.error is None else "error"
        obs_metrics.TASKS_COMPLETED.inc(backend=backend, outcome=outcome)
        obs_metrics.TASK_WALL_SECONDS.observe(result.seconds, backend=backend)
        if queued_at is not None:
            wait = time.perf_counter() - queued_at - result.seconds
            obs_metrics.TASK_QUEUE_SECONDS.observe(
                max(0.0, wait), backend=backend
            )
        obs_metrics.POOL_OUTSTANDING.set(pool.outstanding)

    def _run_inline(self, experiment: Experiment) -> float:
        """Run one spec in the parent, honouring the pinned engine;
        returns the wall time."""
        start = time.perf_counter()
        if self.engine is None:
            self.runner.run(experiment)
            return self._inline_seconds(start)
        previous = os.environ.get("REPRO_ENGINE")
        os.environ["REPRO_ENGINE"] = self.engine
        try:
            self.runner.run(experiment)
        finally:
            if previous is None:
                os.environ.pop("REPRO_ENGINE", None)
            else:
                os.environ["REPRO_ENGINE"] = previous
        return self._inline_seconds(start)

    @staticmethod
    def _inline_seconds(start: float) -> float:
        seconds = time.perf_counter() - start
        if metrics_enabled():
            obs_metrics.TASK_WALL_SECONDS.observe(
                seconds, backend=pools.SERIAL
            )
            obs_metrics.TASKS_COMPLETED.inc(
                backend=pools.SERIAL, outcome="ok"
            )
        return seconds

    def _report(
        self, done: int, total: int, label: str, seconds: float, backend: str
    ) -> None:
        if self.progress is not None:
            self.progress(
                f"[{done}/{total}] {label} ({seconds:.2f}s, {backend})"
            )
