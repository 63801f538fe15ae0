"""The observability CLI surface: --trace/--metrics/--quiet flags,
the merged trace file, and ``repro trace view``."""

import collections
import json
import os
import re

import pytest

from repro.engine import compiled_available
from repro.experiment import Experiment
from repro.obs import log
from repro.obs.trace import NULL_RECORDER, TraceRecorder, recorder, set_recorder
from repro.orchestration.cli import main
from repro.orchestration.executor import SweepExecutor
from repro.orchestration.store import ResultStore


@pytest.fixture(autouse=True)
def store_per_test(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))


def _sweep(*extra):
    return main(
        [
            "sweep",
            "--groups", "1",
            "--policies", "ucp",
            "--refs-per-core", "2000",
            "--pool", "serial",
            *extra,
        ]
    )


class TestTraceFlag:
    def test_sweep_writes_a_merged_trace(self, tmp_path):
        trace = tmp_path / "sweep.trace.jsonl"
        assert _sweep("--trace", str(trace)) == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        names = {event["name"] for event in events}
        assert "sweep" in names  # executor span
        assert "run" in names  # engine span
        assert any(name.startswith("group G2-1") for name in names)

    def test_chrome_json_suffix_writes_the_container(self, tmp_path):
        trace = tmp_path / "sweep.trace.json"
        assert _sweep("--trace", str(trace)) == 0
        document = json.loads(trace.read_text())
        assert document["displayTimeUnit"] == "ms"
        assert document["traceEvents"]

    def test_trace_view_converts_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "sweep.trace.jsonl"
        assert _sweep("--trace", str(trace)) == 0
        out = tmp_path / "view.json"
        assert main(["trace", "view", str(trace), "-o", str(out)]) == 0
        document = json.loads(out.read_text())
        assert {e["name"] for e in document["traceEvents"]} >= {"sweep", "run"}

    def test_pooled_suite_merges_worker_task_spans(self, tmp_path):
        trace = tmp_path / "suite.trace.jsonl"
        code = main([
            "scenario", "--suite", "quick", "--filter", "sparse-2c",
            "--policies", "unmanaged,cooperative",
            "--governors", "none,coordinated",
            "--refs-per-core", "4000", "--jobs", "2", "--trace", str(trace),
        ])
        assert code == 0
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        # one task span per (policy, governor) run, recorded in workers
        assert sum(1 for event in events if event.get("cat") == "task") == 4

    def test_trace_view_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(SystemExit, match="cannot read trace"):
            main(["trace", "view", str(bad)])


#: one line of the Prometheus text exposition: a comment or a sample
EXPOSITION_LINE = re.compile(r"#.*|[A-Za-z_:][A-Za-z0-9_:]*(\{[^}]*\})? \S+")

#: how each pool is selected
POOL_ARGUMENTS = {
    "serial": ["--pool", "serial"],
    "warm": ["--pool", "warm", "--jobs", "2"],
}


def _engine_lines(text):
    """The dump's run, epoch and store-write counter series."""
    return sorted(
        line for line in text.splitlines()
        if line.startswith((
            "repro_engine_runs_total", "repro_engine_epochs_total",
            "repro_store_artifacts_written_total",
        ))
    )


#: the one-group ucp sweep whose trace the worker-event tests read
TRACED_SWEEP = ["sweep", "--cores", "2", "--groups", "1", "--policies", "ucp",
                "--refs-per-core", "3000", "--quiet"]


def _traced_sweep(tmp_path, name, store, *pool):
    """Run the traced sweep; its events."""
    trace = tmp_path / f"{name}.jsonl"
    assert main([*TRACED_SWEEP, "--store", str(store), "--trace", str(trace),
                 *pool]) == 0
    return [json.loads(line) for line in trace.read_text().splitlines()]


def _simulation_events(events):
    return [
        event for event in events
        if event.get("cat") == "task"
        or event["name"] in ("run", "kernel_span")
    ]


class TestWorkerEvents:
    """Pooled tasks send their trace events home on the result record;
    the store holds results only."""

    def test_a_resumed_sweep_records_no_task_events(self, tmp_path):
        store = tmp_path / "store"
        first = _traced_sweep(tmp_path, "first", store, "--jobs", "2")
        assert sum(event.get("cat") == "task" for event in first) == 3
        second = _traced_sweep(tmp_path, "second", store, "--jobs", "2")
        (sweep,) = [event for event in second if event["name"] == "sweep"]
        assert sweep["args"]["pending"] == 0
        assert _simulation_events(second) == []

    def test_warm_and_serial_traces_agree(self, tmp_path):
        traces = {
            pool: _traced_sweep(tmp_path, pool, tmp_path / pool, *argv)
            for pool, argv in POOL_ARGUMENTS.items()
        }
        tasks = {
            pool: collections.Counter(
                event["name"] for event in events if event.get("cat") == "task"
            )
            for pool, events in traces.items()
        }
        assert tasks["warm"] == tasks["serial"]
        assert sum(tasks["serial"].values()) == 3
        runs = {
            pool: sum(event["name"] == "run" for event in events)
            for pool, events in traces.items()
        }
        assert runs["warm"] == runs["serial"] == 3
        # the warm tasks ran in the workers, not in this process
        assert all(
            event["pid"] != os.getpid()
            for event in _simulation_events(traces["warm"])
        )

    def test_worker_events_lie_inside_the_sweep_span(self, tmp_path):
        events = _traced_sweep(
            tmp_path, "warm", tmp_path / "store", *POOL_ARGUMENTS["warm"]
        )
        (sweep,) = [event for event in events if event["name"] == "sweep"]
        worker = [event for event in events if event["pid"] != os.getpid()]
        assert worker
        for event in worker:
            assert sweep["ts"] <= event["ts"]
            assert event["ts"] + event.get("dur", 0) <= sweep["ts"] + sweep["dur"]

    @pytest.mark.skipif(not compiled_available(), reason="needs the C kernel")
    def test_warm_and_serial_summaries_agree(self, tmp_path, tiny_two_core):
        """summary() sums the run spans, which warm workers send home: a
        warm and a serial sweep of one grid give the same kernel totals."""
        totals = {}
        for pool in ("warm", "serial"):
            rec = TraceRecorder()
            set_recorder(rec)
            with SweepExecutor(
                ResultStore(tmp_path / pool), max_workers=2, pool=pool
            ) as executor:
                executor.prefetch([
                    Experiment(group, "ucp", tiny_two_core)
                    for group in ("G2-4", "G2-8")
                ])
            summary = rec.summary()
            runs = [e["args"] for e in rec.events() if e["name"] == "run"]
            assert len(runs) == 5
            for total in ("kernel_spans", "kernel_refs"):
                assert summary[total] == sum(run[total] for run in runs)
            totals[pool] = (summary["kernel_spans"], summary["kernel_refs"])
        assert totals["warm"] == totals["serial"]
        assert totals["serial"][0] > 0

    def test_the_store_holds_results_only(self, tmp_path):
        for pool, argv in POOL_ARGUMENTS.items():
            store = tmp_path / pool
            _traced_sweep(tmp_path, pool, store, *argv)
            kinds = {
                json.loads(path.read_text())["kind"]
                for path in store.glob("*.json")
            }
            assert kinds == {"alone", "group"}


class TestOneRecorderPerCommand:
    def test_back_to_back_commands_write_disjoint_traces(self, tmp_path):
        """Each traced command records into a fresh recorder and puts
        back the one it found, with the quiet switch."""
        first = _traced_sweep(tmp_path, "first", tmp_path / "one", "--jobs", "2")
        second = _traced_sweep(tmp_path, "second", tmp_path / "two", "--jobs", "2")
        for events in (first, second):
            assert sum(event["name"] == "sweep" for event in events) == 1
            assert sum(event.get("cat") == "task" for event in events) == 3
        assert not {json.dumps(e, sort_keys=True) for e in first} & {
            json.dumps(e, sort_keys=True) for e in second
        }
        assert recorder() is NULL_RECORDER and not log.quiet()

    def test_a_command_puts_back_a_live_recorder(self, tmp_path):
        mine = TraceRecorder()
        set_recorder(mine)
        before = len(mine.events())
        _traced_sweep(tmp_path, "traced", tmp_path / "store", "--pool", "serial")
        assert recorder() is mine and len(mine.events()) == before

    def test_a_failing_command_puts_back_the_recorder(self, tmp_path):
        with pytest.raises(SystemExit):
            main([*TRACED_SWEEP, "--store", str(tmp_path / "store"),
                  "--trace", str(tmp_path / "t.jsonl"),
                  "--governor-param", "freq_mhz=1700"])
        assert recorder() is NULL_RECORDER and not log.quiet()


class TestMetricsFlag:
    @pytest.mark.parametrize("pool", sorted(POOL_ARGUMENTS))
    def test_every_pool_dumps_the_serial_engine_samples(self, pool, tmp_path):
        """Pooled tasks run in other processes; the samples they
        record must still reach the parent's dump."""
        dumps = {}
        for name in dict.fromkeys(("serial", pool)):
            metrics = tmp_path / f"{name}.prom"
            assert main([
                "sweep", "--groups", "1", "--policies", "ucp",
                "--refs-per-core", "10000", "--quiet",
                "--store", str(tmp_path / name), "--metrics", str(metrics),
                *POOL_ARGUMENTS[name],
            ]) == 0
            dumps[name] = _engine_lines(metrics.read_text())
        assert dumps[pool] == dumps["serial"]
        assert 'repro_engine_runs_total{policy="UCP"} 1' in dumps[pool]
        assert any(
            line.startswith("repro_engine_epochs_total ") for line in dumps[pool]
        )
        assert any(
            line.startswith("repro_store_artifacts_written_total ")
            for line in dumps[pool]
        )

    def test_sweep_writes_prometheus_text(self, tmp_path):
        metrics = tmp_path / "metrics.prom"
        assert _sweep("--metrics", str(metrics)) == 0
        text = metrics.read_text()
        assert "# TYPE repro_engine_runs_total counter" in text
        assert 'repro_engine_runs_total{policy="UCP"} 1' in text
        assert "repro_tasks_completed_total" in text

    def test_dash_prints_to_stdout(self, capsys):
        assert _sweep("--metrics", "-") == 0
        captured = capsys.readouterr()
        assert "# TYPE repro_engine_epochs_total counter" in captured.out
        # stdout is the dump alone: every line is exposition
        lines = [line for line in captured.out.splitlines() if line]
        assert [line for line in lines if not EXPOSITION_LINE.fullmatch(line)] == []
        # the tables and the summary line go to stderr
        assert "weighted speedup" in captured.err
        assert "tasks computed" in captured.err


class TestQuietFlag:
    def test_quiet_suppresses_progress_but_not_tables(self, capsys):
        assert _sweep("--quiet") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "weighted speedup" in captured.out

    def test_progress_lines_appear_without_quiet(self, capsys):
        assert _sweep() == 0
        assert "[" in capsys.readouterr().err  # [n/m] progress lines
