"""The trace recorder: span primitives, the engine-run protocol,
kernel-span accounting, and the JSONL/Chrome file formats."""

import json
import types

import pytest

from repro.obs import trace as trace_module
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    disable_tracing,
    enable_tracing,
    read_events,
    recorder,
    set_recorder,
    timed,
    merge_events,
    to_chrome_trace,
    tracing_enabled,
    write_jsonl,
    write_trace_file,
)


class TestNullRecorder:
    def test_everything_is_a_noop(self):
        null = NullRecorder()
        assert null.enabled is False
        token = null.begin("task")
        null.end(token)
        null.instant("fallback", cat="fallback", layer="x")
        null.run_begin()
        null.epoch(100)
        assert null.run_end() == {}
        assert null.events() == []
        assert null.take() == []
        assert null.summary() == {}

    def test_default_recorder_is_the_null(self):
        assert recorder() is NULL_RECORDER
        assert not tracing_enabled()


class TestSpans:
    def test_begin_end_complete_event(self):
        rec = TraceRecorder()
        token = rec.begin("task-1", cat="task", key="abc")
        rec.end(token, outcome="ok")
        (event,) = [e for e in rec.events() if e["name"] == "task-1"]
        assert event["ph"] == "X"
        assert event["dur"] >= 0
        assert event["args"] == {"key": "abc", "outcome": "ok"}
        assert event["cat"] == "task"

    def test_instant_event(self):
        rec = TraceRecorder()
        rec.instant("fallback", cat="fallback", layer="engine.run")
        event = rec.events()[-1]
        assert (event["name"], event["ph"], event["cat"]) == ("fallback", "i", "fallback")
        assert event["args"] == {"layer": "engine.run"}
        assert "dur" not in event and event["ts"] >= 0

    def test_end_unknown_token_is_ignored(self):
        rec = TraceRecorder()
        before = len(rec.events())
        rec.end(12345)
        assert len(rec.events()) == before

    def test_take_drains_the_log(self):
        rec = TraceRecorder()
        rec.end(rec.begin("first"))
        assert [e["name"] for e in rec.take()] == ["trace_start", "first"]
        assert rec.take() == []
        rec.end(rec.begin("after"))
        taken = rec.take()
        assert [e["name"] for e in taken] == ["after"]
        assert rec.events() == [] and rec.take() == []

    def test_events_are_copies(self):
        rec = TraceRecorder()
        rec.end(rec.begin("one"))
        rec.events()[-1]["name"] = "mutated"
        assert rec.events()[-1]["name"] == "one"

    def test_merge_events_appends_to_a_live_recorder_only(self):
        worker = TraceRecorder()
        worker.end(worker.begin("task"))
        shipped = worker.take()
        merge_events(shipped)  # the default null recorder drops them
        assert recorder().events() == []
        parent = enable_tracing()
        merge_events(shipped)
        assert [e["name"] for e in parent.events()][-2:] == [
            "trace_start", "task"
        ]

    def test_trace_start_carries_the_wall_anchor(self):
        rec = TraceRecorder()
        start = rec.events()[0]
        assert start["name"] == "trace_start"
        assert start["args"]["wall_time"] > 0


def _kernel_spans(monkeypatch):
    """A kernel span the way the compiled engine times one: a
    ``timed("kernel_span", cat="kernel", ...)`` block, here over a
    clock that advances by exactly the span's seconds."""
    clock = {"now": 0.0}
    monkeypatch.setattr(
        trace_module, "time", types.SimpleNamespace(perf_counter=lambda: clock["now"])
    )

    def span(seconds, **args):
        with timed("kernel_span", cat="kernel", **args):
            clock["now"] += seconds

    return span


class TestRunProtocol:
    def test_epoch_spans_chain_cycles(self):
        rec = TraceRecorder()
        rec.run_begin(policy="ucp", cores=2)
        rec.epoch(30_000, measuring=False)
        rec.epoch(60_000, measuring=True)
        summary = rec.run_end(end_cycle=61_000)
        assert summary["epochs"] == 2
        epochs = [e for e in rec.events() if e["name"] == "epoch"]
        assert [(e["args"]["cycle_start"], e["args"]["cycle_end"]) for e in epochs] == [
            (0, 30_000),
            (30_000, 60_000),
        ]
        (run,) = [e for e in rec.events() if e["name"] == "run"]
        assert run["args"]["epochs"] == 2
        assert run["args"]["end_cycle"] == 61_000

    def test_kernel_totals_accumulate_across_runs(self, monkeypatch):
        span = _kernel_spans(monkeypatch)
        rec = TraceRecorder()
        set_recorder(rec)
        rec.run_begin()
        span(0.25, refs=100)
        first = rec.run_end()
        rec.run_begin()
        span(0.5, refs=300)
        span(0.25, refs=100)
        second = rec.run_end()
        assert first["kernel_spans"] == 1 and first["kernel_refs"] == 100
        runs = [e for e in rec.events() if e["name"] == "run"]
        assert [run["args"]["kernel_refs"] for run in runs] == [100, 400]
        assert second["kernel_spans"] == 2 and second["kernel_refs"] == 400
        # summary() sums the run spans: the totals perfbench's ledger reads
        total = rec.summary()
        assert total["kernel_spans"] == 3
        assert total["kernel_seconds"] == pytest.approx(1.0)
        assert total["kernel_refs"] == 500

    def test_kernel_event_cap_bounds_the_log(self, monkeypatch):
        span = _kernel_spans(monkeypatch)
        rec = TraceRecorder()
        set_recorder(rec)
        rec.run_begin()
        for _ in range(TraceRecorder.KERNEL_EVENT_CAP + 50):
            span(0.001, refs=1)
        rec.run_end()
        events = [e for e in rec.events() if e["name"] == "kernel_span"]
        assert len(events) == TraceRecorder.KERNEL_EVENT_CAP
        # the run span's totals still count every span past the cap
        assert rec.summary()["kernel_spans"] == TraceRecorder.KERNEL_EVENT_CAP + 50

    def test_the_cap_spans_runs(self, monkeypatch):
        """The cap bounds the recorder, not each run: a later run keeps
        its totals but records no kernel-span event."""
        span = _kernel_spans(monkeypatch)
        rec = TraceRecorder()
        set_recorder(rec)
        rec.run_begin()
        for _ in range(TraceRecorder.KERNEL_EVENT_CAP):
            span(0.001, refs=1)
        rec.run_end()
        rec.run_begin()
        span(0.001, refs=7)
        assert rec.run_end()["kernel_refs"] == 7
        events = [e for e in rec.events() if e["name"] == "kernel_span"]
        assert len(events) == TraceRecorder.KERNEL_EVENT_CAP

    def test_summary_sums_merged_run_spans(self, monkeypatch):
        """A worker's run spans, merged into the parent, count in the
        parent's summary() as its own do."""
        span = _kernel_spans(monkeypatch)
        worker = TraceRecorder()
        set_recorder(worker)
        worker.run_begin()
        span(0.5, refs=30)
        worker.run_end()
        parent = TraceRecorder()
        set_recorder(parent)
        merge_events(worker.take())
        assert worker.summary()["kernel_spans"] == 0  # its log went home
        total = parent.summary()
        assert (total["kernel_spans"], total["kernel_refs"]) == (1, 30)
        assert total["kernel_seconds"] == pytest.approx(0.5)


class TestGlobals:
    def test_enable_disable(self):
        installed = enable_tracing()
        assert tracing_enabled() and recorder() is installed
        again = enable_tracing()
        assert again is installed  # idempotent: no recorder churn
        disable_tracing()
        assert recorder() is NULL_RECORDER

    def test_set_recorder_returns_previous(self):
        mine = TraceRecorder()
        previous = set_recorder(mine)
        assert previous is NULL_RECORDER
        assert set_recorder(previous) is mine


class TestFileFormats:
    def test_jsonl_roundtrip(self, tmp_path):
        rec = TraceRecorder()
        rec.end(rec.begin("one"))
        path = tmp_path / "trace.jsonl"
        with open(path, "w", encoding="utf-8") as handle:
            count = write_jsonl(rec.events(), handle)
        assert count == 2
        assert read_events(str(path)) == rec.events()

    def test_write_trace_file_chrome_for_json_suffix(self, tmp_path):
        rec = TraceRecorder()
        rec.end(rec.begin("one"))
        path = tmp_path / "trace.json"
        write_trace_file(rec.events(), str(path))
        document = json.loads(path.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert [e["name"] for e in document["traceEvents"]] == [
            "trace_start",
            "one",
        ]
        # read_events understands the container too
        assert read_events(str(path)) == rec.events()

    def test_to_chrome_trace_wraps(self):
        document = to_chrome_trace([{"name": "x"}])
        assert document == {
            "traceEvents": [{"name": "x"}],
            "displayTimeUnit": "ms",
        }

    def test_read_events_rejects_non_list(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"traceEvents": 5}')
        with pytest.raises(ValueError):
            read_events(str(path))
