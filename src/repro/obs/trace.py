"""Hierarchical trace recorder: sweep → task → run → epoch spans, and
:func:`timed`, the one timing primitive every instrumented layer uses.

Spans are stored as Chrome trace-event dicts (``ph: "X"`` complete events
with microsecond ``ts``/``dur`` relative to the recorder's start, after
one ``ph: "i"`` metadata instant), so the JSONL export converts to a
Perfetto-loadable file by wrapping the list in ``{"traceEvents": [...]}``.
Engine spans also carry the deterministic sim clock (cycle ranges) in
``args`` so tests can reconcile them against ``TimelineSample``
boundaries.

The default recorder is :data:`NULL_RECORDER`, whose every method is a
no-op and whose ``enabled`` flag lets hot loops hoist the check; golden
byte-identity relies on this default.  :func:`enable_tracing` swaps in a
live recorder.

Warm pool workers record into their own process's recorder.  After each
task a worker drains it with :meth:`TraceRecorder.take` and ships the
events home with the task's result; the parent appends them to its
recorder with :func:`merge_events`, so a ``--trace`` file reads the same
on every pool.  A forked worker keeps the recorder it inherited, so its
timestamps share the parent's clock origin.  The recorder is the only
observability record: ``--metrics`` renders its events
(:mod:`repro.obs.metrics`), and :meth:`TraceRecorder.summary` sums
its run spans.

Wall-clock time never becomes run data: ``perf_counter`` measures span
durations, and the single absolute anchor (via
``repro.orchestration.clock.wall_now``) lives in a metadata event only.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterable, TextIO

from repro.orchestration.clock import wall_now

#: Histogram bucket upper bounds: a value counts in the first bucket
#: whose bound it does not exceed (``bisect_left``), or in one more
#: bucket past the last bound.  Seconds buckets cover sub-millisecond
#: store probes up to multi-second pool tasks; size buckets are powers
#: of two (kernel spans retire up to thousands of references).  A run
#: span counts its kernel spans into both, and the ``--metrics``
#: histograms (:mod:`repro.obs.metrics`) use them.
SECONDS_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                512.0, 1024.0, 4096.0, 16384.0)


class NullRecorder:
    """Recorder with every probe compiled out; the default.

    ``enabled`` is False so hot paths can hoist a single bool check; the
    methods exist so call sites never branch on recorder type.
    """

    enabled = False

    def begin(self, name: str, cat: str = "task", **args: Any) -> int:
        return -1

    def end(self, token: int, **args: Any) -> None:
        pass

    def instant(self, name: str, cat: str, **args: Any) -> None:
        pass

    def run_begin(self, **args: Any) -> None:
        pass

    def epoch(self, cycle: int, **args: Any) -> None:
        pass

    def run_end(self, **args: Any) -> dict:
        return {}

    def take(self) -> list[dict]:
        return []

    def events(self) -> list[dict]:
        return []

    def summary(self) -> dict:
        return {}


class TraceRecorder(NullRecorder):
    """In-memory recorder of Chrome trace events.

    Thread-safe enough for the repo's use: appends and token allocation
    hold a lock, so threads sharing one recorder can interleave their
    spans.
    """

    enabled = True

    #: Cap on retained kernel-span events per recorder; compiled runs
    #: can execute tens of thousands of spans.  The run spans carry
    #: every span's totals and bucket counts, so ``summary()`` and the
    #: ``--metrics`` histograms stay exact past the cap.
    KERNEL_EVENT_CAP = 2000

    def __init__(self) -> None:
        self._origin = time.perf_counter()
        self._events: list[dict] = []
        self._open: dict[int, tuple[str, str, float, dict]] = {}
        self._tokens = itertools.count(1)
        self._lock = threading.Lock()
        # Events stamp os.getpid() at append time, not this snapshot:
        # warm-pool workers fork and inherit the parent's recorder, and
        # their events keep their own pid track in the merged trace.
        self._pid = os.getpid()
        # Run-scoped state (one engine run at a time per process/thread).
        self._run_token = -1
        self._epochs = 0
        self._epoch_start = self._origin
        self._epoch_cycle = 0
        # The open run's kernel totals and span-size/span-seconds
        # bucket counts, which its run span carries, and the kernel
        # spans this recorder has seen, for KERNEL_EVENT_CAP.
        self._run_spans = 0
        self._run_seconds = 0.0
        self._run_refs = 0
        self._run_refs_buckets = [0] * (len(SIZE_BUCKETS) + 1)
        self._run_seconds_buckets = [0] * (len(SECONDS_BUCKETS) + 1)
        self._kernel_seen = 0
        self._events.append(
            {
                "name": "trace_start",
                "ph": "i",
                "ts": 0.0,
                "pid": self._pid,
                "tid": threading.get_ident(),
                "cat": "meta",
                "args": {"wall_time": wall_now(), "pid": self._pid},
            }
        )

    # -- primitives ----------------------------------------------------

    def _complete(
        self, name: str, cat: str, start: float, end: float, args: dict
    ) -> None:
        """Append one complete event timed by two ``perf_counter``
        readings.  A kernel span also feeds its run's totals; past
        :attr:`KERNEL_EVENT_CAP` it feeds only them."""
        if cat == "kernel":
            refs, seconds = int(args.get("refs", 0)), end - start
            self._run_spans += 1
            self._run_seconds += seconds
            self._run_refs += refs
            self._run_refs_buckets[bisect_left(SIZE_BUCKETS, refs)] += 1
            self._run_seconds_buckets[bisect_left(SECONDS_BUCKETS, seconds)] += 1
            self._kernel_seen += 1
            if self._kernel_seen > self.KERNEL_EVENT_CAP:
                return
        event = {
            "name": name,
            "ph": "X",
            "ts": (start - self._origin) * 1e6,
            "dur": (end - start) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "cat": cat,
            "args": args,
        }
        with self._lock:
            self._events.append(event)

    def begin(self, name: str, cat: str = "task", **args: Any) -> int:
        with self._lock:
            token = next(self._tokens)
            self._open[token] = (name, cat, time.perf_counter(), args)
        return token

    def end(self, token: int, **args: Any) -> None:
        with self._lock:
            started = self._open.pop(token, None)
        if started is not None:
            name, cat, start, opened = started
            self._complete(
                name, cat, start, time.perf_counter(), {**opened, **args}
            )

    def instant(self, name: str, cat: str, **args: Any) -> None:
        """Append one instant event: something that happened, with no
        duration (a kernel fallback)."""
        event = {
            "name": name,
            "ph": "i",
            "ts": (time.perf_counter() - self._origin) * 1e6,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "cat": cat,
            "args": args,
        }
        with self._lock:
            self._events.append(event)

    # -- engine-run protocol -------------------------------------------

    def run_begin(self, **args: Any) -> None:
        self._run_token = self.begin("run", cat="engine", **args)
        self._epochs = 0
        self._epoch_start = time.perf_counter()
        self._epoch_cycle = 0
        self._run_spans = 0
        self._run_seconds = 0.0
        self._run_refs = 0
        self._run_refs_buckets = [0] * (len(SIZE_BUCKETS) + 1)
        self._run_seconds_buckets = [0] * (len(SECONDS_BUCKETS) + 1)

    def epoch(self, cycle: int, **args: Any) -> None:
        """Record one epoch span covering (last boundary, ``cycle``]."""
        now = time.perf_counter()
        self._complete(
            "epoch", "engine", self._epoch_start, now,
            {"cycle_start": self._epoch_cycle, "cycle_end": cycle, **args},
        )
        self._epoch_start = now
        self._epoch_cycle = cycle
        self._epochs += 1

    def run_end(self, **args: Any) -> dict:
        summary = {
            "epochs": self._epochs,
            "kernel_spans": self._run_spans,
            "kernel_seconds": self._run_seconds,
            "kernel_refs": self._run_refs,
        }
        # The run span carries its kernel totals and bucket counts, so
        # a trace holds them exactly even past KERNEL_EVENT_CAP.
        self.end(
            self._run_token, **summary,
            kernel_refs_buckets=self._run_refs_buckets,
            kernel_seconds_buckets=self._run_seconds_buckets,
            **args,
        )
        self._run_token = -1
        return summary

    # -- export --------------------------------------------------------

    def take(self) -> list[dict]:
        """Every event recorded so far, emptying the log: a pool worker
        ships each task's events home."""
        with self._lock:
            taken, self._events = self._events, []
        return taken

    def events(self) -> list[dict]:
        with self._lock:
            return [dict(event) for event in self._events]

    def summary(self) -> dict:
        """The kernel totals of every recorded run span, summed.  A
        warm worker's run spans come home with its tasks, so a warm
        and a serial sweep give the same totals."""
        with self._lock:
            count = len(self._events)
            runs = [
                event["args"] for event in self._events
                if event["name"] == "run" and event["cat"] == "engine"
            ]
        return {
            "events": count,
            "kernel_spans": sum(run["kernel_spans"] for run in runs),
            "kernel_seconds": sum((run["kernel_seconds"] for run in runs), 0.0),
            "kernel_refs": sum(run["kernel_refs"] for run in runs),
        }


NULL_RECORDER = NullRecorder()

_recorder: NullRecorder = NULL_RECORDER


def recorder() -> NullRecorder:
    """The process-wide recorder (a no-op unless tracing is enabled)."""
    return _recorder


def tracing_enabled() -> bool:
    return _recorder.enabled


def set_recorder(new: NullRecorder) -> NullRecorder:
    """Swap the process recorder; returns the previous one (tests use this)."""
    global _recorder
    previous = _recorder
    _recorder = new
    return previous


def enable_tracing() -> NullRecorder:
    """Install a live recorder if the current one is the no-op."""
    global _recorder
    if not _recorder.enabled:
        _recorder = TraceRecorder()
    return _recorder


def disable_tracing() -> None:
    global _recorder
    _recorder = NULL_RECORDER


def merge_events(events: Iterable[dict]) -> None:
    """Append events from :meth:`TraceRecorder.take` (a pool worker's)
    to this process's recorder, if it is live."""
    if isinstance(_recorder, TraceRecorder):
        with _recorder._lock:
            _recorder._events.extend(events)


# -- the timing primitive ---------------------------------------------


@dataclass(slots=True)
class _Timed:
    """A timed site with tracing on: one clock read at each end."""

    name: str
    cat: str
    args: dict[str, Any]
    rec: TraceRecorder
    start: float = 0.0

    def __enter__(self) -> dict[str, Any]:
        self.start = time.perf_counter()
        return self.args

    def __exit__(self, *exc: object) -> None:
        self.rec._complete(
            self.name, self.cat, self.start, time.perf_counter(), self.args
        )


class _Untimed:
    """A timed site with tracing off: no clock read, nothing recorded."""

    __slots__ = ()

    def __enter__(self) -> dict[str, Any]:
        return {}

    def __exit__(self, *exc: object) -> None:
        pass


_UNTIMED = _Untimed()


def timed(name: str, *, cat: str = "task", **args: Any) -> _Timed | _Untimed:
    """Time one layer: the only timing code an instrumented site has.

    ``with timed("store.put", cat="store") as span:`` runs the body,
    then, with tracing on, records one complete ``cat`` event named
    ``name`` whose args are ``args`` plus whatever the body set on
    ``span`` — even if the body raises.  With tracing off it reads no
    clock and records nothing; ``span`` is then a throwaway dict.
    """
    rec = _recorder
    if not isinstance(rec, TraceRecorder):
        return _UNTIMED
    return _Timed(name, cat, args, rec)


# -- file formats ------------------------------------------------------


def to_chrome_trace(events: Iterable[dict]) -> dict:
    """Wrap events in the Chrome/Perfetto trace-event container."""
    return {"traceEvents": list(events), "displayTimeUnit": "ms"}


def write_jsonl(events: Iterable[dict], stream: TextIO) -> int:
    count = 0
    for event in events:
        stream.write(json.dumps(event, sort_keys=True) + "\n")
        count += 1
    return count


def read_events(path: str) -> list[dict]:
    """Read a trace file: JSONL, a Chrome container, or a bare JSON list.

    Both JSONL and the Chrome container start with ``{``, so dispatch
    parses the whole document first and falls back to line-by-line:
    a multi-line JSONL file is not one valid JSON value.
    """
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    try:
        loaded = json.loads(text)
    except json.JSONDecodeError:
        events: Any = [
            json.loads(line) for line in text.splitlines() if line.strip()
        ]
    else:
        if isinstance(loaded, dict):
            # The Chrome container — or a single-event JSONL file.
            events = loaded.get("traceEvents", [loaded])
        else:
            events = loaded
    if not isinstance(events, list):
        raise ValueError(f"{path}: not a trace event list")
    return events


def write_trace_file(events: Iterable[dict], path: str) -> int:
    """Write events to ``path``: Chrome JSON for ``.json``, else JSONL."""
    rows = list(events)
    with open(path, "w", encoding="utf-8") as handle:
        if path.endswith(".json"):
            json.dump(to_chrome_trace(rows), handle, sort_keys=True)
            handle.write("\n")
        else:
            write_jsonl(rows, handle)
    return len(rows)

