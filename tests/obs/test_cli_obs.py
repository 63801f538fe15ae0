"""The observability CLI surface: --trace/--metrics/--quiet flags,
the merged trace file, and ``repro trace view``."""

import json

import pytest

from repro.obs.metrics import reset_metrics
from repro.orchestration.cli import main


@pytest.fixture(autouse=True)
def keep_env_clean(monkeypatch, tmp_path):
    """_apply_obs exports $REPRO_TRACE/$REPRO_METRICS for workers;
    monkeypatch scopes those exports (and the store) to each test."""
    monkeypatch.setenv("REPRO_STORE", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_TRACE", raising=False)
    monkeypatch.delenv("REPRO_METRICS", raising=False)


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


class TestMetricsFlag:
    @pytest.mark.parametrize("pool", sorted(POOL_ARGUMENTS))
    def test_every_pool_dumps_the_serial_engine_samples(self, pool, tmp_path):
        """Pooled tasks run in other processes; the samples they
        record must still reach the parent's dump."""
        dumps = {}
        for name in dict.fromkeys(("serial", pool)):
            reset_metrics()
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
        out = capsys.readouterr().out
        assert "# TYPE repro_engine_epochs_total counter" in out


class TestQuietFlag:
    def test_quiet_suppresses_progress_but_not_tables(self, capsys):
        assert _sweep("--quiet") == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert "weighted speedup" in captured.out

    def test_progress_lines_appear_without_quiet(self, capsys):
        assert _sweep() == 0
        assert "[" in capsys.readouterr().err  # [n/m] progress lines
