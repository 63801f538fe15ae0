"""Pluggable execution pools: where sweep tasks actually run.

:class:`~repro.orchestration.executor.SweepExecutor` plans *what* to
run and in which dependency order; a :class:`Pool` decides *where*.
Both backends honour the same contract — tasks arrive as
JSON-serialisable :class:`PoolTask` specs, results are persisted into
the shared :class:`~repro.orchestration.store.ResultStore` under the
task key, and :meth:`Pool.wait_one` hands back one
:class:`PoolResult` (label, wall time, error) per completed task —
so results are bit-identical across backends and to the executor's
inline runs, and the executor's scheduling logic never changes.

Two pool classes, in ``auto``-preference order:

``warm``
    Long-lived worker processes.  Each worker imports :mod:`repro`
    once, resolves (and, for the compiled engine, builds/loads the C
    kernel) once, and keeps one store-backed
    :class:`~repro.sim.runner.ExperimentRunner` alive for its whole
    lifetime — so per-(benchmark, geometry) traces are generated once
    per worker instead of once per task.  Workers pull *batches* of
    task specs over a queue, amortising pickling and dispatch for
    tiny tasks.  The default backend.
``ssh``
    Fan-out to remote hosts.  Batches of task specs (plus the alone
    artifacts they depend on) ship as one JSON document over a
    :class:`Transport`; the remote side — ``python -m
    repro.orchestration.pools`` reading stdin — replays them into a
    temporary store and answers with the computed artifact envelopes,
    which the local side syncs into the shared store.  The special
    host name ``local`` substitutes a subprocess for the ssh hop
    (single-machine fan-out, CI, tests).

The third backend name, ``serial``, has no pool class: the
:class:`~repro.orchestration.executor.SweepExecutor` runs those tasks
inline in the calling process.  It is the semantic baseline the pools
are tested against.

Every worker — warm process or remote host — builds its
:class:`~repro.sim.runner.ExperimentRunner` with the pool's engine
pin, so no backend writes ``$REPRO_ENGINE``.

Selection: an explicit ``pool=``/``--pool`` wins, else ``$REPRO_POOL``,
else ``ssh`` when hosts are given (``--hosts``/``$REPRO_HOSTS``) and
``warm`` otherwise.

Failure surfacing: a task that raises in a worker never kills the
pool silently — the worker catches it, and the executor re-raises it
as a :class:`SweepTaskError` naming the task label, key and backend.

Metrics: when the parent collects them, every worker ships the counter
and histogram samples each task recorded inside that task's result
record, and :meth:`Pool.wait_one` adds them into the parent's registry
(see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import queue as queue_module
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.experiment import Experiment
from repro.obs import builtin as obs_metrics
from repro.obs.metrics import (
    enable_metrics,
    merge_samples,
    metrics_enabled,
    reset_metrics,
    take_samples,
)
from repro.orchestration.store import ResultStore
from repro.sim.runner import ExperimentRunner

#: environment variable selecting the pool backend
POOL_ENV = "REPRO_POOL"
#: environment variable listing ssh hosts (comma-separated)
HOSTS_ENV = "REPRO_HOSTS"

WARM = "warm"
SSH = "ssh"
SERIAL = "serial"

#: every backend name, default-preference order first
POOL_NAMES = (WARM, SSH, SERIAL)

#: version of the ssh wire format (request/response documents)
WIRE_SCHEMA = 1

#: metrics of a remote request's private scratch store, never shipped
#: home: the parent counts its own store's writes when it ingests the
#: returned artifacts
_SCRATCH_STORE_METRICS = (
    obs_metrics.STORE_PROBE_SECONDS.name,
    obs_metrics.STORE_PUT_SECONDS.name,
    obs_metrics.STORE_ARTIFACTS_WRITTEN.name,
)


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


# ----------------------------------------------------------------------
# Wire types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PoolTask:
    """One sweep task in wire form: everything a worker — local
    process or remote host — needs to run the spec and persist its
    artifact under ``key``."""

    key: str
    label: str
    #: the :meth:`Experiment.to_dict` document
    spec: dict[str, Any]
    #: module whose import registers the policy class (a fresh or
    #: remote worker inherits no registrations)
    policy_module: str
    governor_module: str | None = None
    #: task keys of the alone runs this spec reads (the ssh pool
    #: ships their artifacts alongside the spec)
    dependencies: tuple[str, ...] = ()

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
            dependencies=tuple(
                dependency.task_key()
                for dependency in experiment.alone_dependencies()
            ),
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "key": self.key,
            "label": self.label,
            "spec": self.spec,
            "policy_module": self.policy_module,
            "governor_module": self.governor_module,
            "dependencies": list(self.dependencies),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "PoolTask":
        return cls(
            key=data["key"],
            label=data["label"],
            spec=data["spec"],
            policy_module=data["policy_module"],
            governor_module=data.get("governor_module"),
            dependencies=tuple(data.get("dependencies") or ()),
        )


@dataclass(frozen=True)
class PoolResult:
    """One completed task: its identity, wall time and outcome."""

    key: str
    label: str
    seconds: float
    error: str | None = None


def run_pool_task(task: PoolTask, runner: ExperimentRunner) -> None:
    """Execute one wire-form task against ``runner`` (and its store).

    Importing the registering modules re-runs their
    ``@register_policy``/``@register_governor`` decorators, which a
    fresh worker or remote process needs before
    :meth:`Experiment.from_dict` can rebuild the spec.
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


def _result_record(task: PoolTask, runner: ExperimentRunner, metrics: bool) -> dict:
    """Run one task in a worker and build the record it sends home:
    the :class:`PoolResult` fields, plus — with metrics on — the
    samples this task recorded (taking them zeroes the worker's
    counters, so the next record carries only its own)."""
    record = asdict(_attempt(task, runner))
    if metrics:
        record["metrics"] = take_samples()
    return record


def _collect(record: dict) -> PoolResult:
    """The :class:`PoolResult` of one worker record, after adding any
    metric samples it carries into this process's registry."""
    samples = record.pop("metrics", None)
    if samples:
        merge_samples(samples)
    return PoolResult(**record)


# ----------------------------------------------------------------------
# The Pool contract
# ----------------------------------------------------------------------
class Pool:
    """Where tasks run.  Subclasses implement :meth:`start`,
    :meth:`submit` and :meth:`wait_one`; results always travel
    through the shared store, never through the pool itself."""

    #: backend name shown in progress lines and errors
    name: str = "pool"

    def __init__(self, store: ResultStore, engine: str | None = None) -> None:
        self.store = store
        #: resolved engine pin every worker's runner is built with
        #: (None lets each run resolve ``$REPRO_ENGINE``/auto itself)
        self.engine = engine
        self.outstanding = 0

    def start(self) -> None:
        """Bring workers up; idempotent."""

    def submit(self, task: PoolTask) -> None:
        raise NotImplementedError

    def submit_many(self, tasks: Iterable[PoolTask]) -> int:
        """Submit a batch; returns how many were submitted.  Backends
        with per-dispatch overhead override this to coalesce."""
        count = 0
        for task in tasks:
            self.submit(task)
            count += 1
        return count

    def wait_one(self) -> PoolResult:
        """Block until any outstanding task completes."""
        raise NotImplementedError

    def close(self) -> None:
        """Tear workers down; idempotent."""

    def __enter__(self) -> "Pool":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


# ----------------------------------------------------------------------
# warm — persistent workers, batched dispatch
# ----------------------------------------------------------------------
def _warm_worker(
    store_root: str,
    engine: str | None,
    metrics: bool,
    tasks: "multiprocessing.Queue",
    results: "multiprocessing.Queue",
) -> None:
    """Long-lived worker body: one import, one engine resolution, one
    runner — then batches of tasks until the ``None`` sentinel."""
    if metrics:
        enable_metrics()
        # a forked worker starts with a copy of the parent's samples
        reset_metrics()
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
        for task_doc in batch:
            results.put(
                _result_record(PoolTask.from_dict(task_doc), runner, metrics)
            )


class WarmPool(Pool):
    """Persistent worker processes fed batches of specs over a queue.

    Each worker holds one store-backed runner for its whole lifetime,
    so traces (and the loaded engine kernel) amortise across every
    task it runs — the difference that makes many-tiny-task sweeps
    scale.  Safe to keep open across phases; the executor reuses one
    instance for a whole sweep.
    """

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
        super().__init__(store, engine)
        self.max_workers = max(1, max_workers)
        #: workers ship their metric samples home when the parent
        #: collects metrics
        self.metrics = metrics_enabled()
        self._workers: list[multiprocessing.Process] = []
        self._tasks: multiprocessing.Queue | None = None
        self._results: multiprocessing.Queue | None = None

    def start(self) -> None:
        if self._workers:
            return
        context = multiprocessing.get_context()
        self._tasks = context.Queue()
        self._results = context.Queue()
        for _ in range(self.max_workers):
            process = context.Process(
                target=_warm_worker,
                args=(
                    str(self.store.root), self.engine, self.metrics,
                    self._tasks, self._results,
                ),
                daemon=True,  # never outlive the parent
            )
            process.start()
            self._workers.append(process)

    def submit(self, task: PoolTask) -> None:
        self.submit_many([task])

    def submit_many(self, tasks: Iterable[PoolTask]) -> int:
        self.start()
        assert self._tasks is not None
        docs = [task.to_dict() for task in tasks]
        if not docs:
            return 0
        # Batch size balances dispatch amortisation against load
        # balance: every worker should see several batches.
        size = max(1, min(self.max_batch, len(docs) // (self.max_workers * 2) or 1))
        for begin in range(0, len(docs), size):
            self._tasks.put(docs[begin : begin + size])
        self.outstanding += len(docs)
        return len(docs)

    def wait_one(self) -> PoolResult:
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


# ----------------------------------------------------------------------
# ssh — remote fan-out over a transport
# ----------------------------------------------------------------------
class SSHTransport:
    """Ships one request document to ``host`` over ``ssh`` and returns
    the response.  Assumes non-interactive auth and a ``repro``
    importable by ``python3`` on the remote side."""

    def __init__(self, host: str, python: str = "python3") -> None:
        self.host = host
        self.python = python

    def run(self, request: bytes) -> bytes:
        command = shlex.join([self.python, "-m", "repro.orchestration.pools"])
        proc = subprocess.run(
            ["ssh", "-o", "BatchMode=yes", self.host, command],
            input=request,
            capture_output=True,
        )
        if proc.returncode != 0:
            detail = proc.stderr.decode("utf-8", "replace").strip()
            raise RuntimeError(f"ssh to {self.host} failed: {detail or proc.returncode}")
        return proc.stdout


class LocalTransport:
    """The ssh pool with the network removed: runs the same remote
    worker protocol in a local subprocess.  Used by tests, CI and
    single-machine fan-out (host name ``local``)."""

    def run(self, request: bytes) -> bytes:
        import repro

        src = str(Path(repro.__file__).resolve().parent.parent)
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = src if not existing else src + os.pathsep + existing
        proc = subprocess.run(
            [sys.executable, "-m", "repro.orchestration.pools"],
            input=request,
            capture_output=True,
            env=env,
        )
        if proc.returncode != 0:
            detail = proc.stderr.decode("utf-8", "replace").strip()
            raise RuntimeError(f"local transport failed: {detail or proc.returncode}")
        return proc.stdout


def transport_for(host: str) -> "SSHTransport | LocalTransport":
    """``local`` → a subprocess stub, anything else → real ssh."""
    return LocalTransport() if host == "local" else SSHTransport(host)


class SSHPool(Pool):
    """Fans batches of tasks out to remote hosts.

    One feeder thread per host pulls tasks off a local queue, bundles
    them (plus the alone artifacts they depend on) into a request
    document, runs it through the host's transport, and syncs the
    returned artifact envelopes into the local store — so by the time
    :meth:`wait_one` reports a task done, its artifact reads locally.
    """

    name = SSH

    #: max tasks per request: one ssh round-trip per batch
    max_batch = 8

    def __init__(
        self,
        store: ResultStore,
        hosts: Iterable[str],
        engine: str | None = None,
        transport_factory: Callable[[str], Any] = transport_for,
        trace: bool | None = None,
    ) -> None:
        from repro.obs.trace import tracing_enabled

        super().__init__(store, engine)
        self.hosts = tuple(hosts)
        if not self.hosts:
            raise ValueError("the ssh pool needs at least one host")
        #: ship traces back from remotes when the parent is tracing
        #: (warm workers inherit ``$REPRO_TRACE`` via the
        #: environment; remotes need it on the wire)
        self.trace = tracing_enabled() if trace is None else trace
        #: ask remotes for their metric samples when the parent
        #: collects metrics
        self.metrics = metrics_enabled()
        self._transport_factory = transport_factory
        self._inbox: queue_module.Queue = queue_module.Queue()
        self._done: queue_module.Queue = queue_module.Queue()
        self._threads: list[threading.Thread] = []
        self._store_lock = threading.Lock()

    def start(self) -> None:
        if self._threads:
            return
        for host in self.hosts:
            thread = threading.Thread(
                target=self._feed_host,
                args=(self._transport_factory(host), host),
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def submit(self, task: PoolTask) -> None:
        self.start()
        self._inbox.put(task)
        self.outstanding += 1

    def _feed_host(self, transport: Any, host: str) -> None:
        while True:
            first = self._inbox.get()
            if first is None:
                return
            batch = [first]
            while len(batch) < self.max_batch:
                try:
                    task = self._inbox.get_nowait()
                except queue_module.Empty:
                    break
                if task is None:
                    self._inbox.put(None)  # re-post for this thread's exit
                    break
                batch.append(task)
            try:
                response = json.loads(transport.run(self._encode_request(batch)))
                self._ingest(response)
                records = response["results"]
            except Exception as exc:  # noqa: BLE001 — feeders must survive
                error = f"host {host}: {type(exc).__name__}: {exc}"
                records = [
                    asdict(PoolResult(task.key, task.label, 0.0, error))
                    for task in batch
                ]
            for record in records:
                self._done.put(record)

    def _encode_request(self, batch: list[PoolTask]) -> bytes:
        """The wire request: specs plus the dependency artifacts the
        remote store must be seeded with (deduped across the batch)."""
        artifacts = []
        seen: set[str] = set()
        with self._store_lock:
            for task in batch:
                for key in task.dependencies:
                    if key in seen:
                        continue
                    seen.add(key)
                    envelope = self.store.get_envelope(key)
                    if envelope is not None:
                        artifacts.append(envelope)
        request = {
            "schema": WIRE_SCHEMA,
            "engine": self.engine,
            "tasks": [task.to_dict() for task in batch],
            "artifacts": artifacts,
        }
        # Optional keys: requests without tracing or metrics keep the
        # exact historical byte layout, so WIRE_SCHEMA stays at 1.
        if self.trace:
            request["trace"] = True
        if self.metrics:
            request["metrics"] = True
        return json.dumps(
            request, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")

    def _ingest(self, response: dict) -> None:
        """Sync computed artifact envelopes into the local store."""
        if response.get("schema") != WIRE_SCHEMA:
            raise RuntimeError(
                f"wire schema {response.get('schema')!r} != {WIRE_SCHEMA}"
            )
        rows = [
            (e["key"], e["payload"], e["kind"], e.get("meta") or {})
            for e in response.get("artifacts", ())
        ]
        if rows:
            with self._store_lock:
                self.store.put_many(rows)

    def wait_one(self) -> PoolResult:
        if self.outstanding <= 0:
            raise RuntimeError("wait_one() with no outstanding tasks")
        record = self._done.get()
        self.outstanding -= 1
        return _collect(record)

    def close(self) -> None:
        if not self._threads:
            return
        for _ in self._threads:
            self._inbox.put(None)
        for thread in self._threads:
            thread.join(timeout=10)
        self._threads.clear()


# ----------------------------------------------------------------------
# Remote worker protocol (python -m repro.orchestration.pools)
# ----------------------------------------------------------------------
def remote_main(stdin: Any = None, stdout: Any = None) -> int:
    """Execute one wire request: read the JSON document on stdin, run
    its tasks against a temporary store seeded with the shipped
    dependency artifacts, answer with results + computed envelopes.

    This is what an :class:`SSHPool` host (or a
    :class:`LocalTransport` subprocess) runs.
    """
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer
    request = json.loads(stdin.read())
    if request.get("schema") != WIRE_SCHEMA:
        raise SystemExit(
            f"wire schema {request.get('schema')!r} != {WIRE_SCHEMA}; "
            "local and remote repro versions disagree"
        )
    traced = bool(request.get("trace"))
    if traced:
        from repro.obs.trace import enable_tracing

        enable_tracing()
    metrics = bool(request.get("metrics"))
    if metrics:
        enable_metrics()
    results: list[dict] = []
    computed: list[str] = []
    with tempfile.TemporaryDirectory(prefix="repro-remote-") as scratch:
        store = ResultStore(Path(scratch) / "store")
        rows = [
            (e["key"], e["payload"], e["kind"], e.get("meta") or {})
            for e in request.get("artifacts", ())
        ]
        if rows:
            store.put_many(rows)
        runner = ExperimentRunner(store=store, engine=request.get("engine"))
        for task_doc in request.get("tasks", ()):
            task = PoolTask.from_dict(task_doc)
            record = _result_record(task, runner, metrics)
            if metrics:
                for name in _SCRATCH_STORE_METRICS:
                    record["metrics"].pop(name, None)
            results.append(record)
            if record["error"] is None:
                computed.append(task.key)
        if traced:
            # Trace artifacts ride home inside the same envelope list
            # as results; the parent's _ingest syncs them unchanged.
            from repro.obs.trace import trace_key

            computed.extend(trace_key(key) for key in list(computed))
        artifacts = [
            envelope
            for envelope in (store.get_envelope(key) for key in computed)
            if envelope is not None
        ]
    response = {"schema": WIRE_SCHEMA, "results": results, "artifacts": artifacts}
    stdout.write(
        json.dumps(
            response, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    )
    stdout.flush()
    return 0


# ----------------------------------------------------------------------
# Selection
# ----------------------------------------------------------------------
def resolve_hosts(hosts: "Iterable[str] | str | None" = None) -> tuple[str, ...]:
    """Host list: explicit argument, else ``$REPRO_HOSTS`` (comma-
    separated), else empty."""
    if hosts is None:
        hosts = os.environ.get(HOSTS_ENV, "")
    if isinstance(hosts, str):
        hosts = [h.strip() for h in hosts.split(",") if h.strip()]
    return tuple(hosts)


def resolve_pool_name(
    name: str | None = None, hosts: "Iterable[str] | str | None" = None
) -> tuple[str, tuple[str, ...]]:
    """Resolve the backend name and host list without building a pool.

    An explicit ``name`` wins, else ``$REPRO_POOL``, else ``ssh``
    when hosts are configured and ``warm`` otherwise.  Asking for
    ``ssh`` without hosts is an error.
    """
    resolved_hosts = resolve_hosts(hosts)
    if name is None:
        name = os.environ.get(POOL_ENV, "").strip().lower() or None
    else:
        name = name.strip().lower()
    if name is None:
        name = SSH if resolved_hosts else WARM
    if name not in POOL_NAMES:
        raise ValueError(
            f"unknown pool {name!r}; expected one of {', '.join(POOL_NAMES)}"
        )
    if name == SSH and not resolved_hosts:
        raise ValueError(
            "the ssh pool needs hosts: pass --hosts/hosts= or set $REPRO_HOSTS"
        )
    return name, resolved_hosts


def resolve_pool(
    name: str | None = None,
    *,
    store: ResultStore,
    max_workers: int = 1,
    engine: str | None = None,
    hosts: "Iterable[str] | str | None" = None,
) -> Pool:
    """Build (but do not start) the selected pool backend.

    ``serial`` has no pool: the executor runs those tasks inline, so
    asking for it here is a :class:`ValueError`.
    """
    name, resolved_hosts = resolve_pool_name(name, hosts)
    if name == SERIAL:
        raise ValueError(
            "the serial backend has no pool; SweepExecutor runs its "
            "tasks inline"
        )
    if name == WARM:
        return WarmPool(store, max_workers, engine=engine)
    return SSHPool(store, resolved_hosts, engine=engine)


if __name__ == "__main__":
    raise SystemExit(remote_main())
