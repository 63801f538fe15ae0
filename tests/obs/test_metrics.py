"""The metrics registry: registration, instrument semantics, the
zero-overhead disabled path, and Prometheus rendering."""

import json
import re

import pytest

from repro.obs import builtin
from repro.obs.metrics import (
    METRIC_NAMES,
    counter,
    disable_metrics,
    enable_metrics,
    gauge,
    histogram,
    merge_samples,
    metric_info,
    metrics_enabled,
    register_metric,
    registered_metrics,
    render_prometheus,
    reset_metrics,
    snapshot,
    take_samples,
    unregister_metric,
)


class TestRegistry:
    def test_register_and_unregister(self):
        metric = counter("test_registry_total", help="a test counter")
        try:
            assert "test_registry_total" in METRIC_NAMES
            info = metric_info("test_registry_total")
            assert info.kind == "counter"
            assert info.help == "a test counter"
            assert metric.name == "test_registry_total"
        finally:
            unregister_metric("test_registry_total")
        assert "test_registry_total" not in METRIC_NAMES

    def test_duplicate_name_raises(self):
        counter("test_duplicate_total")
        try:
            with pytest.raises(ValueError, match="test_duplicate_total"):
                gauge("test_duplicate_total")
        finally:
            unregister_metric("test_duplicate_total")

    def test_bad_kind_and_name_raise(self):
        with pytest.raises(ValueError):
            register_metric("test_bad_kind", kind="timer")(lambda: [])
        with pytest.raises(ValueError):
            register_metric("not-a-name", kind="counter")(lambda: [])

    def test_listing_is_sorted(self):
        names = [info.name for info in registered_metrics()]
        assert names == sorted(names)

    def test_builtins_are_registered(self):
        for name in (
            "repro_engine_runs_total",
            "repro_engine_epochs_total",
            "repro_tasks_completed_total",
            "repro_kernel_fallbacks_total",
            "repro_store_get_seconds",
        ):
            assert name in METRIC_NAMES, name

    def test_builtin_catalogue_matches_docs(self, request):
        """docs/observability.md's metric table lists exactly the
        registered repro_* instruments."""
        docs = request.config.rootpath / "docs" / "observability.md"
        documented = set(re.findall(r"`(repro_[a-z_]+)` \|", docs.read_text()))
        registered = {
            info.name
            for info in registered_metrics()
            if info.name.startswith("repro_")
        }
        assert documented == registered


class TestInstruments:
    def test_counter_disabled_is_noop(self):
        assert not metrics_enabled()
        builtin.ENGINE_RUNS.inc(policy="ucp")
        assert list(builtin.ENGINE_RUNS.collect()) == []

    def test_counter_counts_with_labels(self):
        enable_metrics()
        builtin.ENGINE_RUNS.inc(policy="ucp")
        builtin.ENGINE_RUNS.inc(2, policy="ucp")
        builtin.ENGINE_RUNS.inc(policy="cooperative")
        samples = {
            tuple(s.labels): s.value for s in builtin.ENGINE_RUNS.collect()
        }
        assert samples[(("policy", "ucp"),)] == 3.0
        assert samples[(("policy", "cooperative"),)] == 1.0

    def test_counter_rejects_negative(self):
        enable_metrics()
        with pytest.raises(ValueError):
            builtin.ENGINE_RUNS.inc(-1)

    def test_gauge_set(self):
        enable_metrics()
        builtin.POOL_OUTSTANDING.set(4)
        builtin.POOL_OUTSTANDING.set(3)
        (sample,) = builtin.POOL_OUTSTANDING.collect()
        assert sample.value == 3.0

    def test_histogram_buckets(self):
        enable_metrics()
        metric = histogram("test_hist_seconds", buckets=(0.1, 1.0))
        try:
            metric.observe(0.05)
            metric.observe(0.5)
            metric.observe(5.0)
            samples = {
                (s.suffix, tuple(s.labels)): s.value for s in metric.collect()
            }
            assert samples[("_bucket", (("le", "0.1"),))] == 1.0
            assert samples[("_bucket", (("le", "1"),))] == 2.0
            assert samples[("_bucket", (("le", "+Inf"),))] == 3.0
            assert samples[("_count", ())] == 3.0
            assert samples[("_sum", ())] == pytest.approx(5.55)
        finally:
            unregister_metric("test_hist_seconds")

    def test_reset_zeroes_instruments(self):
        enable_metrics()
        builtin.ENGINE_EPOCHS.inc(10)
        reset_metrics()
        assert list(builtin.ENGINE_EPOCHS.collect()) == []

    def test_taken_samples_merge_back_through_json(self):
        """A worker's take_samples document, shipped as JSON and merged
        into a parent holding its own samples, adds to them; taking
        zeroes counters and histograms but leaves gauges alone."""
        enable_metrics()
        builtin.ENGINE_RUNS.inc(2, policy="ucp")
        builtin.TASK_WALL_SECONDS.observe(0.25, backend="warm")
        builtin.POOL_OUTSTANDING.set(3)
        shipped = json.loads(json.dumps(take_samples()))
        assert sorted(shipped) == [
            "repro_engine_runs_total", "repro_task_wall_seconds",
        ]
        assert list(builtin.ENGINE_RUNS.collect()) == []
        assert list(builtin.TASK_WALL_SECONDS.collect()) == []
        assert [s.value for s in builtin.POOL_OUTSTANDING.collect()] == [3.0]

        builtin.ENGINE_RUNS.inc(policy="ucp")
        builtin.TASK_WALL_SECONDS.observe(2.0, backend="warm")
        merge_samples(shipped)
        text = render_prometheus()
        assert 'repro_engine_runs_total{policy="ucp"} 3' in text
        assert 'repro_task_wall_seconds_count{backend="warm"} 2' in text
        assert 'repro_task_wall_seconds_sum{backend="warm"} 2.25' in text
        assert 'repro_task_wall_seconds_bucket{backend="warm",le="0.5"} 1' in text

    def test_enable_disable_roundtrip(self):
        enable_metrics()
        assert metrics_enabled()
        disable_metrics()
        assert not metrics_enabled()


class TestRendering:
    def test_prometheus_text(self):
        enable_metrics()
        builtin.ENGINE_RUNS.inc(policy="ucp")
        builtin.ENGINE_EPOCHS.inc(7)
        text = render_prometheus()
        assert text.endswith("\n")
        assert "# HELP repro_engine_runs_total" in text
        assert "# TYPE repro_engine_runs_total counter" in text
        assert 'repro_engine_runs_total{policy="ucp"} 1' in text
        assert "repro_engine_epochs_total 7" in text

    def test_label_escaping(self):
        enable_metrics()
        metric = counter("test_escape_total")
        try:
            metric.inc(label='a"b\\c\nd')
            text = render_prometheus()
            assert 'label="a\\"b\\\\c\\nd"' in text
        finally:
            unregister_metric("test_escape_total")

    def test_snapshot_is_jsonable(self):
        enable_metrics()
        builtin.ENGINE_RUNS.inc(policy="ucp")
        builtin.TASK_WALL_SECONDS.observe(0.25, backend="warm")
        document = snapshot()
        json.dumps(document)  # must not raise
        assert document["repro_engine_runs_total"]["kind"] == "counter"
