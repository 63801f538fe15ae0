"""``repro.obs.timed``, the one timing primitive: what it records with
tracing on (and so what the ``--metrics`` view reads), that it reads
no clock with tracing off, and that it is the only timing code outside
``repro.obs`` apart from the sites whose seconds are program output."""

import ast
import re
import types
from pathlib import Path

import pytest

import repro
from repro.experiment import Experiment
from repro.obs import trace as trace_module
from repro.obs.metrics import enable_metrics, render_prometheus
from repro.obs.trace import TraceRecorder, set_recorder
from repro.orchestration.executor import SweepExecutor
from repro.orchestration.store import ResultStore


class ClockRead(Exception):
    pass


def _no_clock():
    raise ClockRead("perf_counter read with tracing off")


def _sweep(store_path, config, groups=("G2-4",)):
    executor = SweepExecutor(ResultStore(store_path), max_workers=1, pool="serial")
    try:
        return executor.prefetch(
            [Experiment(group, "cooperative", config) for group in groups]
        )
    finally:
        executor.close()


def _counted_puts(monkeypatch):
    """Wrap ResultStore.put_many to count batches and artifacts."""
    put_many = ResultStore.put_many
    seen = {"batches": 0, "artifacts": 0}

    def counting(self, artifacts):
        artifacts = list(artifacts)
        seen["batches"] += 1
        seen["artifacts"] += len(artifacts)
        return put_many(self, artifacts)

    monkeypatch.setattr(ResultStore, "put_many", counting)
    return seen


def _counted_reads(monkeypatch):
    """Wrap ResultStore._read, which every read path goes through, to
    count the reads."""
    read = ResultStore._read
    seen = {"reads": 0}

    def counting(self, key, decode=None):
        seen["reads"] += 1
        return read(self, key, decode)

    monkeypatch.setattr(ResultStore, "_read", counting)
    return seen


def _sample(text, name):
    (value,) = re.findall(rf"^{name} (\S+)$", text, re.M)
    return float(value)


class TestTimed:
    def test_tracing_off_reads_no_clock(self, tmp_path, tiny_two_core, monkeypatch):
        def no_clock():
            monkeypatch.setattr(
                trace_module, "time", types.SimpleNamespace(perf_counter=_no_clock)
            )

        no_clock()
        assert _sweep(tmp_path / "store", tiny_two_core) == (3, 0)
        # the patch does reach the primitive once --metrics turns
        # recording on
        monkeypatch.undo()
        enable_metrics()
        no_clock()
        with pytest.raises(ClockRead):
            _sweep(tmp_path / "other", tiny_two_core, groups=("G2-8",))

    def test_metrics_count_every_put_batch_and_artifact(
        self, tmp_path, tiny_two_core, monkeypatch
    ):
        seen = _counted_puts(monkeypatch)
        reads = _counted_reads(monkeypatch)
        enable_metrics()
        _sweep(tmp_path / "store", tiny_two_core, groups=("G2-4", "G2-8"))
        text = render_prometheus()
        assert seen["batches"] > 0
        assert _sample(text, "repro_store_put_seconds_count") == seen["batches"]
        assert _sample(text, "repro_store_artifacts_written_total") == seen["artifacts"]
        # one sample per read, whichever path asked for it
        assert reads["reads"] > 0
        assert _sample(text, "repro_store_get_seconds_count") == reads["reads"]
        before = reads["reads"]
        store = ResultStore(tmp_path / "store")
        store.probe("0" * 64)
        store.get("0" * 64)
        store.get_envelope("0" * 64)
        assert reads["reads"] == before + 3
        text = render_prometheus()
        assert _sample(text, "repro_store_get_seconds_count") == reads["reads"]

    def test_traced_store_spans_carry_their_artifacts(
        self, tmp_path, tiny_two_core, monkeypatch
    ):
        seen = _counted_puts(monkeypatch)
        reads = _counted_reads(monkeypatch)
        rec = TraceRecorder()
        set_recorder(rec)
        _sweep(tmp_path / "store", tiny_two_core)
        ResultStore(tmp_path / "store").probe("0" * 64)
        store = [e for e in rec.events() if e["cat"] == "store"]
        puts = [e for e in store if e["name"] == "store.put"]
        gets = [e for e in store if e not in puts]
        # one store.get span per read: the sweep's planning reads and the probe
        assert {e["name"] for e in gets} == {"store.get"}
        assert len(gets) == reads["reads"] > 1
        assert all(e["ph"] == "X" and e["dur"] >= 0 for e in store)
        # one put per computed task: three results, and no trace
        # artifact beside them (trace events never reach the store)
        assert len(puts) == seen["batches"] == 3
        assert sum(e["args"]["artifacts"] for e in puts) == seen["artifacts"]

    def test_body_extends_args_and_records_even_on_error(self):
        from repro.obs import timed

        rec = TraceRecorder()
        set_recorder(rec)
        with pytest.raises(RuntimeError):
            with timed("store.put", cat="store", size=3) as span:
                span["artifacts"] = 5
                raise RuntimeError("body failed")
        (event,) = [e for e in rec.events() if e["name"] == "store.put"]
        assert event["cat"] == "store" and event["args"] == {"size": 3, "artifacts": 5}
        text = render_prometheus()
        assert _sample(text, "repro_store_artifacts_written_total") == 5
        assert _sample(text, "repro_store_put_seconds_count") == 1


#: Functions outside repro/obs that read perf_counter themselves, each
#: because its seconds are program output rather than instrumentation:
#: a pool task's wall time (``PoolResult.seconds``, progress lines and
#: the ``pool`` span's ``seconds``) and the CLI's elapsed-time summary.
CLOCK_READERS = {
    "orchestration/pools.py::_attempt",
    "orchestration/executor.py::SweepExecutor._run_inline",
    "orchestration/cli.py::_Session.__init__",
    "orchestration/cli.py::_Session.tally",
}


def _clock_readers(path, relative):
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = (*scope, child.name)
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "perf_counter":
                    found.add(f"{relative}::{'.'.join(scope) or '<module>'}")
            visit(child, inner)

    visit(ast.parse(path.read_text()), ())
    return found


def test_only_program_output_sites_read_the_clock_outside_obs():
    root = Path(repro.__file__).parent
    readers = set()
    for path in sorted(root.rglob("*.py")):
        relative = path.relative_to(root).as_posix()
        if not relative.startswith("obs/"):
            readers |= _clock_readers(path, relative)
    assert readers == CLOCK_READERS
