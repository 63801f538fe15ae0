"""``repro serve`` — sweep-as-a-service over HTTP.

A small stdlib-only job-queue daemon: clients POST a list of
serialised :class:`~repro.experiment.Experiment` specs, the server
schedules them through a :class:`~repro.orchestration.executor.
SweepExecutor` against its result store, and clients poll job state,
stream progress lines, and fetch finished artifacts by task key.

Endpoints (all JSON unless noted):

``GET /v1/health``
    Liveness + version + job counts.
``POST /v1/jobs``
    Body: ``{"experiments": [<Experiment.to_dict>, ...], "engine":
    null}`` (or a bare JSON list of spec documents).  Returns the job
    record.  Job ids are content digests of the request, so
    resubmitting the same specs returns the *existing* job instead of
    queueing duplicate work — idempotent by construction.
``GET /v1/jobs``
    Every job's summary, newest first.
``GET /v1/jobs/<id>``
    One job record: state (``queued``/``running``/``done``/
    ``failed``), per-task key/label/state, counts, error.
``GET /v1/jobs/<id>/events``
    The job's progress lines as ``text/plain``.  With ``?follow=1``
    the response streams: lines are written as the executor reports
    them, and the connection closes when the job reaches a terminal
    state.
``GET /v1/results/<key>``
    The stored artifact envelope for a task key (404 on miss).

Durability: every job record persists as one JSON file in a sibling
directory of the store (``<store>.jobs/`` — *outside* the store root,
so ``repro clean`` and store scans never confuse job records with
artifacts).  On restart the server requeues any job that was queued
or running; the executor's plan pass probes the store first, so
already-completed tasks of an interrupted job are cache hits and the
job resumes where it died instead of starting over.

Scheduling: one scheduler thread drains the queue a job at a time;
parallelism lives *inside* the job, in the executor's pool backend
(``--pool``/``--hosts``/``--jobs`` at serve time apply to every job).
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from queue import Empty, Queue
from typing import Any, Iterable, Optional
from urllib.parse import parse_qs, urlparse

from repro.experiment import Experiment
from repro.obs import builtin as obs_metrics
from repro.obs.metrics import enable_metrics, render_prometheus
from repro.orchestration.clock import Clock, wall_now
from repro.orchestration.executor import SweepExecutor
from repro.orchestration.pools import SweepTaskError
from repro.orchestration.store import ResultStore

#: job states
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"

#: states a restarted server must pick back up
UNFINISHED = (QUEUED, RUNNING)


def jobs_dir_for(store: ResultStore) -> Path:
    """Where a store's job records live: a *sibling* of the store root
    (``<root>.jobs``), never inside it — ``clean()`` and ``keys()``
    must only ever see artifacts."""
    root = Path(store.root)
    return root.with_name(root.name + ".jobs")


def _job_id(document: dict[str, Any]) -> str:
    """Content digest of a job request — resubmits collapse onto the
    same id."""
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:24]


class SweepServer:
    """The daemon: an HTTP front end plus one scheduler thread.

    ``port=0`` binds an ephemeral port (read :attr:`port` after
    :meth:`start`).  ``pool``/``hosts``/``engine``/``max_workers``
    configure the executor every job runs through.  ``clock`` is the
    timestamp source for job records (default: the blessed wall clock
    from :mod:`repro.orchestration.clock`); tests inject a fake so
    record ordering never depends on real time.
    """

    def __init__(
        self,
        store: ResultStore,
        host: str = "127.0.0.1",
        port: int = 0,
        max_workers: int | None = None,
        engine: str | None = None,
        pool: str | None = None,
        hosts: "Iterable[str] | str | None" = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.store = store
        self.clock: Clock = clock if clock is not None else wall_now
        self.jobs_dir = jobs_dir_for(store)
        self.host = host
        self.port = port
        self.max_workers = max_workers
        self.engine = engine
        self.pool = pool
        self.hosts = hosts
        self._lock = threading.RLock()
        self._queue: Queue = Queue()
        self._stop = threading.Event()
        self._httpd: ThreadingHTTPServer | None = None
        self._threads: list[threading.Thread] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Bind, recover unfinished jobs, and serve in the background."""
        # The daemon always collects metrics: it is long-lived, the
        # per-sample cost is a dict update, and /v1/metrics must show
        # live counters from the first scrape.
        enable_metrics()
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._recover()
        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"

            def log_message(self, *args: object) -> None:  # noqa: N802
                pass  # progress belongs to /events, not stderr noise

            def do_GET(self) -> None:  # noqa: N802
                server._handle_get(self)

            def do_POST(self) -> None:  # noqa: N802
                server._handle_post(self)

        self._httpd = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._httpd.server_address[1]
        for target in (self._httpd.serve_forever, self._schedule):
            thread = threading.Thread(target=target, daemon=True)
            thread.start()
            self._threads.append(thread)

    def close(self) -> None:
        """Stop serving and scheduling; a running job finishes its
        current task batch and the job requeues on next start."""
        self._stop.set()
        if self._httpd is not None:
            self._httpd.shutdown()
            self._httpd.server_close()
            self._httpd = None
        for thread in self._threads:
            thread.join(timeout=10)
        self._threads.clear()

    def __enter__(self) -> "SweepServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def _recover(self) -> None:
        """Requeue jobs a previous process left unfinished.  Their
        completed tasks are store hits, so resume costs only the
        remaining work."""
        for record in self._all_jobs():
            if record["state"] in UNFINISHED:
                record["state"] = QUEUED
                record["events"].append("requeued after server restart")
                self._persist(record)
                self._queue.put(record["id"])

    # ------------------------------------------------------------------
    # Job records
    # ------------------------------------------------------------------
    def _job_path(self, job_id: str) -> Path:
        return self.jobs_dir / f"{job_id}.json"

    def _persist(self, record: dict[str, Any]) -> None:
        path = self._job_path(record["id"])
        temporary = path.with_name(f".{path.name}.{os.getpid()}.tmp")
        temporary.write_text(json.dumps(record, sort_keys=True))
        os.replace(temporary, path)

    def _load(self, job_id: str) -> dict[str, Any] | None:
        try:
            return json.loads(self._job_path(job_id).read_text())
        except (OSError, json.JSONDecodeError):
            return None

    def _all_jobs(self) -> list[dict[str, Any]]:
        records = []
        if self.jobs_dir.is_dir():
            for path in sorted(self.jobs_dir.glob("*.json")):
                record = self._load(path.stem)
                if record is not None:
                    records.append(record)
        records.sort(key=lambda r: r["created"], reverse=True)
        return records

    def submit(
        self, experiments: list[dict[str, Any]], engine: str | None = None
    ) -> tuple[dict[str, Any], bool]:
        """Queue a job (idempotent); returns ``(record, created)``."""
        document = {"experiments": experiments, "engine": engine}
        job_id = _job_id(document)
        with self._lock:
            existing = self._load(job_id)
            if existing is not None:
                return existing, False
            # Validate eagerly: a bad spec should 400 at submit time,
            # not fail the job minutes later.
            specs = [Experiment.from_dict(doc) for doc in experiments]
            record = {
                "id": job_id,
                "created": self.clock(),
                "state": QUEUED,
                "engine": engine,
                "experiments": experiments,
                "tasks": [
                    {"key": spec.task_key(), "label": spec.label, "state": QUEUED}
                    for spec in specs
                ],
                "events": [f"queued {len(specs)} spec(s)"],
                "error": None,
            }
            self._persist(record)
        obs_metrics.SERVE_JOBS.inc(state=QUEUED)
        self._queue.put(job_id)
        return record, True

    # ------------------------------------------------------------------
    # Scheduler
    # ------------------------------------------------------------------
    def _schedule(self) -> None:
        while not self._stop.is_set():
            try:
                job_id = self._queue.get(timeout=0.2)
            except Empty:
                continue
            try:
                self._run_job(job_id)
            except Exception as error:  # noqa: BLE001 — scheduler survives
                self._finish(job_id, FAILED, f"{type(error).__name__}: {error}")

    def _event(self, job_id: str, line: str) -> None:
        with self._lock:
            record = self._load(job_id)
            if record is not None:
                record["events"].append(line)
                self._persist(record)

    def _finish(self, job_id: str, state: str, error: str | None) -> None:
        with self._lock:
            record = self._load(job_id)
            if record is None:
                return
            record["state"] = state
            record["error"] = error
            task_state = DONE if state == DONE else FAILED
            for task in record["tasks"]:
                task["state"] = task_state
            record["events"].append(error if error else "done")
            # count first: a client that sees the job finished sees it counted
            obs_metrics.SERVE_JOBS.inc(state=state)
            obs_metrics.SERVE_JOBS_ACTIVE.add(-1.0)
            self._persist(record)

    def _run_job(self, job_id: str) -> None:
        with self._lock:
            record = self._load(job_id)
            if record is None or record["state"] not in UNFINISHED:
                return
            record["state"] = RUNNING
            record["events"].append("running")
            self._persist(record)
        obs_metrics.SERVE_JOBS.inc(state=RUNNING)
        obs_metrics.SERVE_JOBS_ACTIVE.add(1.0)
        experiments = [Experiment.from_dict(doc) for doc in record["experiments"]]
        engine = record.get("engine") or self.engine
        with SweepExecutor(
            self.store,
            max_workers=self.max_workers,
            progress=lambda line: self._event(job_id, line),
            engine=engine,
            pool=self.pool,
            hosts=self.hosts,
        ) as executor:
            try:
                computed, cached = executor.prefetch(experiments)
            except SweepTaskError as error:
                self._finish(job_id, FAILED, str(error))
                return
            self._event(
                job_id, f"{computed} task(s) computed, {cached} cached"
            )
        self._finish(job_id, DONE, None)

    # ------------------------------------------------------------------
    # HTTP plumbing
    # ------------------------------------------------------------------
    @staticmethod
    def _send_json(
        handler: BaseHTTPRequestHandler, status: int, document: Any
    ) -> None:
        body = json.dumps(document, sort_keys=True).encode("utf-8")
        handler.send_response(status)
        handler.send_header("Content-Type", "application/json")
        handler.send_header("Content-Length", str(len(body)))
        handler.end_headers()
        handler.wfile.write(body)

    def _summary(self, record: dict[str, Any]) -> dict[str, Any]:
        return {
            "id": record["id"],
            "state": record["state"],
            "created": record["created"],
            "tasks": len(record["tasks"]),
            "error": record["error"],
        }

    def _handle_get(self, handler: BaseHTTPRequestHandler) -> None:
        url = urlparse(handler.path)
        parts = [part for part in url.path.split("/") if part]
        if parts == ["v1", "health"]:
            jobs = self._all_jobs()
            states: dict[str, int] = {}
            for record in jobs:
                states[record["state"]] = states.get(record["state"], 0) + 1
            from repro import __version__

            self._send_json(
                handler,
                200,
                {
                    "status": "ok",
                    "version": __version__,
                    "store": str(self.store.root),
                    "jobs": states,
                },
            )
            return
        if parts == ["v1", "metrics"]:
            body = render_prometheus().encode("utf-8")
            handler.send_response(200)
            handler.send_header(
                "Content-Type", "text/plain; version=0.0.4; charset=utf-8"
            )
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
            return
        if parts == ["v1", "jobs"]:
            self._send_json(
                handler, 200, [self._summary(r) for r in self._all_jobs()]
            )
            return
        if len(parts) == 3 and parts[:2] == ["v1", "jobs"]:
            record = self._load(parts[2])
            if record is None:
                self._send_json(handler, 404, {"error": f"no job {parts[2]}"})
            else:
                self._send_json(handler, 200, record)
            return
        if len(parts) == 4 and parts[:2] == ["v1", "jobs"] and parts[3] == "events":
            self._handle_events(
                handler, parts[2], follow="follow" in parse_qs(url.query)
            )
            return
        if len(parts) == 3 and parts[:2] == ["v1", "results"]:
            envelope = self.store.get_envelope(parts[2])
            if envelope is None:
                self._send_json(handler, 404, {"error": f"no artifact {parts[2]}"})
            else:
                self._send_json(handler, 200, envelope)
            return
        self._send_json(handler, 404, {"error": f"no route {url.path}"})

    def _handle_events(
        self, handler: BaseHTTPRequestHandler, job_id: str, follow: bool
    ) -> None:
        record = self._load(job_id)
        if record is None:
            self._send_json(handler, 404, {"error": f"no job {job_id}"})
            return
        handler.send_response(200)
        handler.send_header("Content-Type", "text/plain; charset=utf-8")
        if not follow:
            body = ("\n".join(record["events"]) + "\n").encode("utf-8")
            handler.send_header("Content-Length", str(len(body)))
            handler.end_headers()
            handler.wfile.write(body)
            return
        # Streaming mode: write lines as the scheduler appends them,
        # close when the job reaches a terminal state (or the server
        # stops).  Connection: close marks the body as EOF-delimited.
        handler.send_header("Connection", "close")
        handler.end_headers()
        sent = 0
        while True:
            record = self._load(job_id)
            if record is None:
                return
            events = record["events"]
            for line in events[sent:]:
                handler.wfile.write((line + "\n").encode("utf-8"))
            handler.wfile.flush()
            sent = len(events)
            if record["state"] in (DONE, FAILED) or self._stop.is_set():
                return
            time.sleep(0.1)

    def _handle_post(self, handler: BaseHTTPRequestHandler) -> None:
        url = urlparse(handler.path)
        parts = [part for part in url.path.split("/") if part]
        if parts != ["v1", "jobs"]:
            self._send_json(handler, 404, {"error": f"no route {url.path}"})
            return
        try:
            length = int(handler.headers.get("Content-Length", "0"))
            document = json.loads(handler.rfile.read(length))
        except (ValueError, json.JSONDecodeError) as error:
            self._send_json(handler, 400, {"error": f"bad JSON body: {error}"})
            return
        if isinstance(document, list):
            document = {"experiments": document, "engine": None}
        experiments = document.get("experiments")
        if not isinstance(experiments, list) or not experiments:
            self._send_json(
                handler,
                400,
                {"error": "body must carry a non-empty 'experiments' list"},
            )
            return
        try:
            record, created = self.submit(experiments, document.get("engine"))
        except (KeyError, TypeError, ValueError) as error:
            self._send_json(
                handler, 400, {"error": f"bad experiment spec: {error}"}
            )
            return
        self._send_json(handler, 201 if created else 200, record)
