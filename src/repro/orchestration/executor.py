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
default or ``ssh`` remote fan-out; ``serial`` has no pool, and the
executor runs its tasks inline.  Every pool
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

Planning reads the store: :meth:`SweepExecutor.plan` asks the runner
for each key (:meth:`ExperimentRunner.probe`), which parses a cached
artifact once and keeps the result in memory for assembly, and takes a
damaged artifact for a miss, so it is recomputed on the pool with the
rest of the pending work.

An ``engine`` pin (``SweepExecutor(engine=...)``, or the pin of the
``runner`` it is given) is passed as a value to the parent's runner
and to every worker's, so a sharded sweep times the same engine a
serial run would, and no process's ``$REPRO_ENGINE`` is written.

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
from collections import deque
from typing import Callable, Iterable

from repro.experiment import ALONE, Experiment
from repro.obs import builtin as obs_metrics
from repro.obs.metrics import metrics_enabled
from repro.obs.trace import recorder as obs_recorder
from repro.orchestration import pools
from repro.orchestration.pools import PoolTask, SweepTaskError
from repro.orchestration.store import ResultStore, default_store_path
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


def _pool_safe(experiment: Experiment) -> bool:
    """Whether a worker process can rebuild this spec's policy and
    governor classes (``__main__`` registrations exist only in the
    parent)."""
    specs = (experiment.policy, experiment.governor)
    return all(
        spec is None or spec.info.cls.__module__ != "__main__" for spec in specs
    )


class SweepExecutor:
    """Shards experiment specs across a pool of workers.

    ``progress`` (optional) receives one human-readable line per
    completed task — ``[done/total] label (seconds, backend)`` — the
    CLI points it at stderr.  ``engine`` (optional) pins the
    execution backend every task runs on — workers and inline parent
    runs alike; it is resolved eagerly so an unavailable explicit
    engine fails here, once, instead of in every worker.  A given
    ``runner`` carries its own pin (:attr:`ExperimentRunner.engine`),
    which the executor adopts; an ``engine`` that disagrees with it
    is a :class:`ValueError`, since inline and pooled tasks would
    then run on different engines.  ``pool``
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

        pinned = None if engine is None else resolve_engine(engine)
        if runner is None:
            runner = ExperimentRunner(store=store, engine=pinned)
        else:
            own = None if runner.engine is None else resolve_engine(runner.engine)
            if engine is not None and pinned != own:
                raise ValueError(
                    f"engine={engine!r} disagrees with the runner's engine "
                    f"{runner.engine!r}; pin the engine on the runner alone"
                )
            pinned = own
        self.store = store
        self.max_workers = resolve_jobs(max_workers)
        #: runs inline tasks and assembles final results; shares the
        #: same store, so every artifact a worker persists is a cache
        #: hit here
        self.runner = runner
        self.progress = progress
        #: resolved backend name, or None to let each run pick its own
        self.engine = pinned
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

        Presence is decided by :meth:`ExperimentRunner.probe`, which
        reads each cached artifact once and keeps the result in the
        runner's memory, so assembly parses nothing again.  A damaged
        artifact reads as a miss and is planned as pending.

        Each distinct task's key is derived once: specs memoise their
        keys and alone dependencies, and the dependencies are interned
        specs shared across the sweep, so the later scheduling and
        :meth:`PoolTask.from_experiment` packing re-derive nothing.
        Warm workers fork after planning and inherit these caches.
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
        running anything.  ``repro sweep --dry-run`` renders this.
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
        resumed sweep reads each artifact once, and assembly then
        reads it from memory.
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

        A spec runs inline in the parent when the pool is ``serial``,
        when the warm pool would get at most one worker, or when its
        policy or governor class lives in ``__main__`` (a worker
        cannot rebuild it).  Inline alone specs run first (they may
        unblock pooled main specs), inline main specs after the pool
        drains (by which point every alone dependency exists in the
        store).  The pool is built only when something is pooled.
        """
        pooled = {e.task_key() for e in (*alone, *main) if _pool_safe(e)}
        if self.pool_name == pools.SERIAL or (
            self.pool_name == pools.WARM and min(self.max_workers, len(pooled)) <= 1
        ):
            pooled = set()
        pending_alone = {e.task_key() for e in alone}
        #: pooled main specs gated on alone deps still pending
        blocked: list[tuple[Experiment, set[str]]] = []
        ready = [e for e in alone if e.task_key() in pooled]
        for experiment in main:
            if experiment.task_key() not in pooled:
                continue
            deps = {
                d.task_key() for d in experiment.alone_dependencies()
            } & pending_alone
            if deps:
                blocked.append((experiment, deps))
            else:
                ready.append(experiment)
        if pooled and self._pool is None:
            self._pool = pools.resolve_pool(
                self.pool_name,
                store=self.store,
                max_workers=self.max_workers,
                engine=self.engine,
                hosts=self.hosts,
            )
        pool = self._pool if pooled else None
        metrics_on = metrics_enabled()
        #: task key -> submit instant, for queue-time metrics
        submitted: dict[str, float] = {}

        def submit(experiments: list[Experiment]) -> None:
            if not experiments:
                return
            batch = [PoolTask.from_experiment(e) for e in experiments]
            pool.submit_many(batch)
            if metrics_on:
                now = time.perf_counter()
                submitted.update((task.key, now) for task in batch)
                obs_metrics.POOL_OUTSTANDING.set(pool.outstanding)

        total = len(alone) + len(main)
        #: alone specs first, so an inline main spec is never next while
        #: an inline alone spec is still waiting
        inline = deque(e for e in (*alone, *main) if e.task_key() not in pooled)
        try:
            if pool is not None:
                pool.start()
                submit(ready)
            for done in range(1, total + 1):
                if pool is not None and pool.outstanding and (
                    not inline or inline[0].kind != ALONE
                ):
                    result = pool.wait_one()
                else:
                    result = self._run_inline(inline.popleft())
                backend = pools.SERIAL if result.key not in pooled else pool.name
                if metrics_on:
                    self._observe_completion(
                        backend, result.seconds, result.error, pool,
                        submitted.pop(result.key, None),
                    )
                if result.error is not None:
                    raise SweepTaskError(
                        result.key, result.label, backend, result.error
                    )
                self._report(done, total, result.label, result.seconds, backend)
                for _experiment, deps in blocked:
                    deps.discard(result.key)
                submit([e for e, deps in blocked if not deps])
                blocked = [(e, deps) for e, deps in blocked if deps]
        except BaseException:
            self.close()
            raise

    @staticmethod
    def _observe_completion(
        backend: str,
        seconds: float,
        error: str | None,
        pool: pools.Pool | None,
        queued_at: float | None,
    ) -> None:
        """Fold one completed task into the metric registry."""
        outcome = "ok" if error is None else "error"
        obs_metrics.TASKS_COMPLETED.inc(backend=backend, outcome=outcome)
        obs_metrics.TASK_WALL_SECONDS.observe(seconds, backend=backend)
        if queued_at is not None:
            wait = time.perf_counter() - queued_at - seconds
            obs_metrics.TASK_QUEUE_SECONDS.observe(
                max(0.0, wait), backend=backend
            )
        if pool is not None:
            obs_metrics.POOL_OUTSTANDING.set(pool.outstanding)

    def _run_inline(self, experiment: Experiment) -> pools.PoolResult:
        """Run one spec in the parent on the runner (which carries the
        engine pin); an exception propagates unchanged."""
        start = time.perf_counter()
        self.runner.run(experiment)
        return pools.PoolResult(
            experiment.task_key(), experiment.label, time.perf_counter() - start
        )

    def _report(
        self, done: int, total: int, label: str, seconds: float, backend: str
    ) -> None:
        if self.progress is not None:
            self.progress(
                f"[{done}/{total}] {label} ({seconds:.2f}s, {backend})"
            )
