"""The ``--metrics`` view: its fixed catalogue, what it reads from the
recorded events, and Prometheus rendering."""

import collections
import json
import re
import types

import pytest

from repro.experiment import Experiment
from repro.obs import trace as trace_module
from repro.obs.log import note_fallback
from repro.obs.metrics import CATALOGUE, enable_metrics, render_prometheus, snapshot
from repro.obs.trace import TraceRecorder, set_recorder, timed, tracing_enabled
from repro.orchestration.executor import SweepExecutor
from repro.orchestration.store import ResultStore


def _run(rec, policy, epochs=0, **mechanics):
    """One engine run on ``rec`` as the simulator records it."""
    rec.run_begin(policy=policy)
    for cycle in range(epochs):
        rec.epoch(cycle + 1)
    rec.run_end(**{
        "takeover_events": {}, "transitions_started": 0,
        "transfer_flushes": 0, "gate_drops": 0, **mechanics,
    })


def _series(text, name):
    """``{labels: value}`` of one metric's sample lines."""
    return {
        labels: float(value)
        for labels, value in re.findall(
            rf"^{name}(\{{[^}}]*\}}|) (\S+)$", text, re.M
        )
    }


class TestCatalogue:
    def test_listing_is_sorted(self):
        names = [metric.name for metric in CATALOGUE]
        assert names == sorted(names)

    def test_builtins_are_listed(self):
        names = {metric.name for metric in CATALOGUE}
        for name in (
            "repro_engine_runs_total",
            "repro_engine_epochs_total",
            "repro_tasks_completed_total",
            "repro_kernel_fallbacks_total",
            "repro_store_get_seconds",
        ):
            assert name in names, name

    def test_builtin_catalogue_matches_docs(self, request):
        """docs/observability.md's metric table lists exactly the
        view's catalogue."""
        docs = request.config.rootpath / "docs" / "observability.md"
        documented = set(re.findall(r"`(repro_[a-z_]+)` \|", docs.read_text()))
        assert documented == {metric.name for metric in CATALOGUE}

    def test_enable_metrics_turns_recording_on(self):
        assert not tracing_enabled()
        enable_metrics()
        assert tracing_enabled()


class TestView:
    def test_recording_off_renders_no_samples(self):
        _run(TraceRecorder(), "ucp")  # a recorder nobody installed
        text = render_prometheus()
        assert [line for line in text.splitlines() if not line.startswith("#")] == []
        assert all(document["samples"] == [] for document in snapshot().values())

    def test_run_spans_count_with_labels(self):
        rec = TraceRecorder()
        set_recorder(rec)
        _run(rec, "ucp")
        _run(rec, "ucp")
        _run(rec, "ucp")
        _run(rec, "cooperative")
        runs = _series(render_prometheus(), "repro_engine_runs_total")
        assert runs == {'{policy="cooperative"}': 1.0, '{policy="ucp"}': 3.0}

    def test_run_span_mechanics_are_summed(self):
        rec = TraceRecorder()
        set_recorder(rec)
        _run(rec, "cooperative", takeover_events={"donor_hit": 4},
             transitions_started=2, transfer_flushes=5, gate_drops=1)
        _run(rec, "cooperative", takeover_events={"donor_hit": 1, "donor_miss": 2},
             transfer_flushes=3)
        text = render_prometheus()
        assert _series(text, "repro_takeover_events_total") == {
            '{kind="donor_hit"}': 5.0, '{kind="donor_miss"}': 2.0,
        }
        assert _series(text, "repro_way_transitions_total") == {"": 2.0}
        assert _series(text, "repro_transfer_flushes_total") == {"": 8.0}
        assert _series(text, "repro_power_gate_drops_total") == {"": 1.0}

    def test_histogram_buckets(self, monkeypatch):
        clock = {"now": 0.0}
        monkeypatch.setattr(
            trace_module, "time",
            types.SimpleNamespace(perf_counter=lambda: clock["now"]),
        )
        set_recorder(TraceRecorder())
        for seconds in (0.05, 0.5, 5.0):
            with timed("store.get", cat="store"):
                clock["now"] += seconds
        samples = {
            (row.get("suffix", ""), tuple(row["labels"].items())): row["value"]
            for row in snapshot()["repro_store_get_seconds"]["samples"]
        }
        assert samples[("_bucket", (("le", "0.1"),))] == 1.0
        assert samples[("_bucket", (("le", "1"),))] == 2.0
        assert samples[("_bucket", (("le", "+Inf"),))] == 3.0
        assert samples[("_count", ())] == 3.0
        assert samples[("_sum", ())] == pytest.approx(5.55)

    def test_counters_match_the_run_results(self, tmp_path, tiny_two_core):
        """The takeover, transition and flush counters read the same
        values the sweep's results carry."""
        rec = TraceRecorder()
        set_recorder(rec)
        specs = [Experiment(g, "cooperative", tiny_two_core) for g in ("G2-4", "G2-8")]
        with SweepExecutor(
            ResultStore(tmp_path / "store"), max_workers=1, pool="serial"
        ) as executor:
            results = executor.sweep(specs)
        stats = [result.policy_stats for result in results.values()]
        text = render_prometheus()
        takeovers = collections.Counter()
        for stat in stats:
            takeovers.update({
                f'{{kind="{kind}"}}': count
                for kind, count in stat.takeover_events.items() if count
            })
        assert takeovers
        assert _series(text, "repro_takeover_events_total") == takeovers
        flushes = sum(stat.transfer_flushes for stat in stats)
        assert _series(text, "repro_transfer_flushes_total") == (
            {"": flushes} if flushes else {}
        )
        transitions = sum(stat.transitions_started for stat in stats)
        assert _series(text, "repro_way_transitions_total") == (
            {"": transitions} if transitions else {}
        )


class TestRendering:
    def test_prometheus_text(self):
        rec = TraceRecorder()
        set_recorder(rec)
        _run(rec, "ucp", epochs=7)
        text = render_prometheus()
        assert text.endswith("\n")
        assert "# HELP repro_engine_runs_total" in text
        assert "# TYPE repro_engine_runs_total counter" in text
        assert 'repro_engine_runs_total{policy="ucp"} 1' in text
        assert "repro_engine_epochs_total 7" in text

    def test_label_escaping(self, monkeypatch):
        from repro.obs import log

        monkeypatch.setattr(log, "_noted", {'a"b\\c\nd'})  # no stderr note
        set_recorder(TraceRecorder())
        note_fallback('a"b\\c\nd', "unused")
        text = render_prometheus()
        assert 'layer="a\\"b\\\\c\\nd"' in text

    def test_snapshot_is_jsonable(self):
        rec = TraceRecorder()
        set_recorder(rec)
        _run(rec, "ucp")
        document = snapshot()
        json.dumps(document)  # must not raise
        assert document["repro_engine_runs_total"]["kind"] == "counter"
        assert [metric.name for metric in CATALOGUE] == list(document)
