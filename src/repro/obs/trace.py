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
timestamps share the parent's clock origin.

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
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, TextIO

from repro.obs.metrics import Counter, Histogram, metrics_enabled
from repro.orchestration.clock import wall_now

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

    #: Cap on retained kernel-span events; compiled runs can execute tens
    #: of thousands of spans and the totals (``summary()``) are what a
    #: profile or ledger needs.
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
        # Kernel-span totals are cumulative across runs (a profiled or
        # ledgered sweep spans many); per-run deltas come from run_begin
        # baselines.
        self._kernel_spans = 0
        self._kernel_seconds = 0.0
        self._kernel_refs = 0
        self._run_kernel_spans = 0
        self._run_kernel_seconds = 0.0
        self._run_kernel_refs = 0
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
        readings.  A kernel span also feeds the kernel totals; past
        :attr:`KERNEL_EVENT_CAP` it feeds only them."""
        if cat == "kernel":
            self._kernel_spans += 1
            self._kernel_seconds += end - start
            self._kernel_refs += int(args.get("refs", 0))
            if self._kernel_spans > self.KERNEL_EVENT_CAP:
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

    # -- engine-run protocol -------------------------------------------

    def run_begin(self, **args: Any) -> None:
        self._run_token = self.begin("run", cat="engine", **args)
        self._epochs = 0
        self._epoch_start = time.perf_counter()
        self._epoch_cycle = 0
        self._run_kernel_spans = self._kernel_spans
        self._run_kernel_seconds = self._kernel_seconds
        self._run_kernel_refs = self._kernel_refs

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
            "kernel_spans": self._kernel_spans - self._run_kernel_spans,
            "kernel_seconds": self._kernel_seconds - self._run_kernel_seconds,
            "kernel_refs": self._kernel_refs - self._run_kernel_refs,
        }
        # The run span carries its kernel totals, so a trace holds them
        # exactly even past KERNEL_EVENT_CAP.
        self.end(self._run_token, **summary, **args)
        self._run_token = -1
        return summary

    # -- export --------------------------------------------------------

    def take(self) -> list[dict]:
        """Every event recorded so far, emptying the log (the kernel
        totals stay): a pool worker ships each task's events home."""
        with self._lock:
            taken, self._events = self._events, []
        return taken

    def events(self) -> list[dict]:
        with self._lock:
            return [dict(event) for event in self._events]

    def summary(self) -> dict:
        return {
            "events": len(self._events),
            "kernel_spans": self._kernel_spans,
            "kernel_seconds": self._kernel_seconds,
            "kernel_refs": self._kernel_refs,
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
    """A timed site with a sink on: one clock read at each end."""

    name: str
    cat: str
    args: dict[str, Any]
    rec: TraceRecorder | None
    seconds: Histogram | None
    counts: Mapping[str, Counter | Histogram] | None
    start: float = 0.0

    def __enter__(self) -> dict[str, Any]:
        self.start = time.perf_counter()
        return self.args

    def __exit__(self, *exc: object) -> None:
        end = time.perf_counter()
        if self.rec is not None:
            self.rec._complete(self.name, self.cat, self.start, end, self.args)
        if self.seconds is not None:
            self.seconds.observe(end - self.start)
        for arg, metric in (self.counts or {}).items():
            value = self.args.get(arg)
            if value is not None:
                if isinstance(metric, Counter):
                    metric.inc(value)
                else:
                    metric.observe(value)


class _Untimed:
    """A timed site with both sinks off: no clock read, nothing fed."""

    __slots__ = ()

    def __enter__(self) -> dict[str, Any]:
        return {}

    def __exit__(self, *exc: object) -> None:
        pass


_UNTIMED = _Untimed()


def timed(
    name: str,
    seconds: Histogram | None = None,
    *,
    cat: str = "task",
    counts: Mapping[str, Counter | Histogram] | None = None,
    **args: Any,
) -> _Timed | _Untimed:
    """Time one layer: the only timing code an instrumented site has.

    ``with timed("store.put", STORE_PUT_SECONDS, cat="store",
    counts={"artifacts": STORE_ARTIFACTS_WRITTEN}) as span:`` runs the
    body, then, with tracing on, records one complete ``cat`` event
    named ``name`` whose args are ``args`` plus whatever the body set
    on ``span``; with metrics on, it observes the body's seconds in
    ``seconds`` and feeds each ``counts`` metric the span arg of its
    key (a counter is incremented by it, a histogram observes it).
    Both happen even if the body raises.  With both sinks off, or only
    metrics on and no metric given, it reads no clock and feeds
    nothing; ``span`` is then a throwaway dict.
    """
    rec = _recorder
    metered = metrics_enabled() and (seconds is not None or bool(counts))
    if not (rec.enabled or metered):
        return _UNTIMED
    return _Timed(
        name, cat, args, rec if isinstance(rec, TraceRecorder) else None,
        seconds if metered else None, counts if metered else None,
    )


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

