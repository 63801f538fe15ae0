"""The warm pool: where sweep tasks run when they do not run inline.

:class:`~repro.orchestration.executor.SweepExecutor` plans *what* to
run and in which dependency order; the pool runs it.  Tasks arrive as
:class:`PoolTask` values, results are persisted into the shared
:class:`~repro.orchestration.store.ResultStore` under the task key,
and :meth:`WarmPool.wait_one` hands back one :class:`PoolResult`
(label, wall time, error) per completed task — so results are
bit-identical to the executor's inline runs.

Two backend names:

``warm``
    Long-lived worker processes (:class:`WarmPool`).  Each worker
    imports :mod:`repro` once, resolves (and, for the compiled engine,
    builds/loads the C kernel) once, and keeps one store-backed
    :class:`~repro.sim.runner.ExperimentRunner` alive for its whole
    lifetime — so per-(benchmark, geometry) traces are generated once
    per worker instead of once per task.  Workers pull *batches* of
    tasks over a queue, amortising pickling and dispatch for tiny
    tasks.  The default backend.
``serial``
    No pool: the :class:`~repro.orchestration.executor.SweepExecutor`
    runs those tasks inline in the calling process.  It is the
    semantic baseline the warm pool is tested against.

Every worker builds its :class:`~repro.sim.runner.ExperimentRunner`
with the pool's engine pin, so no worker writes ``$REPRO_ENGINE``.

Selection: an explicit ``pool=``/``--pool`` wins, else
``$REPRO_POOL``, else ``warm``.

Failure surfacing: a task that raises in a worker never kills the
pool silently — the worker catches it, and the executor re-raises it
as a :class:`SweepTaskError` naming the task label, key and backend.
A worker that dies outright is named the same way.

Observability: the pool captures the parent's two switches (trace
and quiet) when it is built and passes them to each worker as
arguments.  With tracing on (``--trace`` or ``--metrics``), a worker
ships the trace events each task recorded inside that task's result
record, and :meth:`WarmPool.wait_one` appends them to the parent's
recorder (see :mod:`repro.obs.trace`), so a cached task, which never
reaches a worker, contributes nothing.
"""

from __future__ import annotations

import multiprocessing
import os
import queue as queue_module
import time
from dataclasses import asdict, dataclass
from typing import Any, Iterable

from repro.experiment import Experiment
from repro.obs import log
from repro.obs.trace import enable_tracing, merge_events, recorder, tracing_enabled
from repro.orchestration.store import ResultStore
from repro.sim.runner import ExperimentRunner

#: environment variable selecting the pool backend
POOL_ENV = "REPRO_POOL"

WARM = "warm"
SERIAL = "serial"

#: every backend name, default first
POOL_NAMES = (WARM, SERIAL)


class SweepTaskError(RuntimeError):
    """A sweep task failed in a pool worker.

    Carries enough context to act on — the failing task's label and
    store key plus the backend it ran on — instead of a bare pool
    traceback.
    """

    def __init__(self, key: str, label: str, backend: str, error: str) -> None:
        super().__init__(
            f"sweep task {label!r} (key {key[:12]}…) failed on the "
            f"{backend} pool: {error}"
        )
        self.key = key
        self.label = label
        self.backend = backend
        self.error = error


@dataclass(frozen=True)
class PoolTask:
    """One sweep task as a worker receives it: everything a worker
    process needs to run the spec and persist its artifact under
    ``key``."""

    key: str
    label: str
    #: the :meth:`Experiment.to_dict` document
    spec: dict[str, Any]
    #: module whose import registers the policy class (a fresh worker
    #: inherits no registrations)
    policy_module: str
    governor_module: str | None = None

    @classmethod
    def from_experiment(cls, experiment: Experiment) -> "PoolTask":
        return cls(
            key=experiment.task_key(),
            label=experiment.label,
            spec=experiment.to_dict(),
            policy_module=experiment.policy.info.cls.__module__,
            governor_module=(
                experiment.governor.info.cls.__module__
                if experiment.governor is not None
                else None
            ),
        )


@dataclass(frozen=True)
class PoolResult:
    """One completed task: its identity, wall time and outcome."""

    key: str
    label: str
    seconds: float
    error: str | None = None


def run_pool_task(task: PoolTask, runner: ExperimentRunner) -> None:
    """Execute one task against ``runner`` (and its store).

    Importing the registering modules re-runs their
    ``@register_policy``/``@register_governor`` decorators, which a
    fresh worker process needs before :meth:`Experiment.from_dict`
    can rebuild the spec.
    """
    import importlib

    importlib.import_module(task.policy_module)
    if task.governor_module is not None:
        importlib.import_module(task.governor_module)
    runner.run(Experiment.from_dict(task.spec))


def _attempt(task: PoolTask, runner: ExperimentRunner) -> PoolResult:
    """Run one task, folding any exception into the result."""
    start = time.perf_counter()
    try:
        run_pool_task(task, runner)
        error = None
    except BaseException as exc:  # noqa: BLE001 — workers must survive
        error = f"{type(exc).__name__}: {exc}"
    return PoolResult(task.key, task.label, time.perf_counter() - start, error)


def _result_record(task: PoolTask, runner: ExperimentRunner, trace: bool) -> dict:
    """Run one task in a worker and build the record it sends home:
    the :class:`PoolResult` fields, plus — with tracing on — the trace
    events this task recorded (taking them empties the worker's log,
    so the next record carries only its own)."""
    record = asdict(_attempt(task, runner))
    if trace:
        record["events"] = recorder().take()
    return record


def _collect(record: dict) -> PoolResult:
    """The :class:`PoolResult` of one worker record, after appending
    any trace events it carries to this process's recorder."""
    events = record.pop("events", None)
    if events:
        merge_events(events)
    return PoolResult(**record)


def _warm_worker(
    store_root: str,
    engine: str | None,
    trace: bool,
    quiet: bool,
    tasks: "multiprocessing.Queue",
    results: "multiprocessing.Queue",
) -> None:
    """Long-lived worker body: one import, one engine resolution, one
    runner — then batches of tasks until the ``None`` sentinel."""
    log.set_quiet(quiet)
    if trace:
        # a forked worker starts with a copy of the parent's recorder:
        # keep it (and so the parent's clock origin), but not the
        # events it holds
        enable_tracing().take()
    try:
        # Resolve (and for the compiled engine, build + load the C
        # kernel) exactly once per worker, not once per task.
        from repro.engine import resolve_engine

        resolve_engine(engine)
    except Exception:
        pass  # per-task attempts will surface the real error
    runner = ExperimentRunner(store=ResultStore(store_root), engine=engine)
    while True:
        batch = tasks.get()
        if batch is None:
            return
        for task in batch:
            results.put(_result_record(task, runner, trace))


class WarmPool:
    """Persistent worker processes fed batches of tasks over a queue.

    Each worker holds one store-backed runner for its whole lifetime,
    so traces (and the loaded engine kernel) amortise across every
    task it runs — the difference that makes many-tiny-task sweeps
    scale.  Results travel through the shared store; only a task's
    outcome and trace events travel through the pool.
    Safe to keep open across phases; the executor reuses one instance
    for a whole sweep.
    """

    #: backend name shown in progress lines and errors
    name = WARM

    #: max tasks per queue message: big enough to amortise pickling,
    #: small enough to keep late workers from starving
    max_batch = 8

    def __init__(
        self,
        store: ResultStore,
        max_workers: int,
        engine: str | None = None,
    ) -> None:
        self.store = store
        self.max_workers = max(1, max_workers)
        #: resolved engine pin every worker's runner is built with
        #: (None lets each run resolve ``$REPRO_ENGINE``/auto itself)
        self.engine = engine
        #: the parent's obs switches, passed on to every worker: with
        #: tracing on, workers ship their events home
        self.trace = tracing_enabled()
        self.quiet = log.quiet()
        self.outstanding = 0
        self._workers: list[multiprocessing.Process] = []
        self._tasks: multiprocessing.Queue | None = None
        self._results: multiprocessing.Queue | None = None

    def start(self) -> None:
        """Bring the workers up; idempotent."""
        if self._workers:
            return
        context = multiprocessing.get_context()
        self._tasks = context.Queue()
        self._results = context.Queue()
        for _ in range(self.max_workers):
            process = context.Process(
                target=_warm_worker,
                args=(
                    str(self.store.root), self.engine, self.trace,
                    self.quiet, self._tasks, self._results,
                ),
                daemon=True,  # never outlive the parent
            )
            process.start()
            self._workers.append(process)

    def submit_many(self, tasks: Iterable[PoolTask]) -> int:
        """Queue ``tasks`` in batches; returns how many were queued."""
        self.start()
        assert self._tasks is not None
        queued = list(tasks)
        if not queued:
            return 0
        # Batch size balances dispatch amortisation against load
        # balance: every worker should see several batches.
        size = max(1, min(self.max_batch, len(queued) // (self.max_workers * 2) or 1))
        for begin in range(0, len(queued), size):
            self._tasks.put(queued[begin : begin + size])
        self.outstanding += len(queued)
        return len(queued)

    def wait_one(self) -> PoolResult:
        """Block until any outstanding task completes."""
        if self.outstanding <= 0:
            raise RuntimeError("wait_one() with no outstanding tasks")
        assert self._results is not None
        while True:
            try:
                record = self._results.get(timeout=0.2)
                break
            except queue_module.Empty:
                # Workers exit only on close()'s sentinel, so any death
                # here is abnormal — and the task it held never reports.
                dead = next(
                    (p for p in self._workers if not p.is_alive()), None
                )
                if dead is not None:
                    raise SweepTaskError(
                        "?" * 12,
                        "<unknown>",
                        self.name,
                        f"warm worker pid {dead.pid} exited with code "
                        f"{dead.exitcode} while {self.outstanding} task(s) "
                        "were outstanding (killed or crashed hard); rerun "
                        "with --pool serial to isolate the failing task",
                    ) from None
        self.outstanding -= 1
        return _collect(record)

    def close(self) -> None:
        """Tear the workers down; idempotent."""
        if not self._workers:
            return
        assert self._tasks is not None
        for _ in self._workers:
            self._tasks.put(None)
        for process in self._workers:
            process.join(timeout=10)
            if process.is_alive():
                process.terminate()
        self._workers.clear()
        self._tasks = self._results = None


def resolve_pool_name(name: str | None = None) -> str:
    """The backend name: an explicit ``name`` wins, else
    ``$REPRO_POOL``, else ``warm``; anything but ``warm`` or
    ``serial`` is a :class:`ValueError`."""
    if name is None:
        name = os.environ.get(POOL_ENV, "").strip().lower() or WARM
    else:
        name = name.strip().lower()
    if name not in POOL_NAMES:
        raise ValueError(
            f"unknown pool {name!r}; expected one of {', '.join(POOL_NAMES)}"
        )
    return name
