"""Observability: metrics registry, hierarchical tracing, progress log.

Three small modules, all off by default and all zero-overhead when off:

- :mod:`repro.obs.metrics` — counters/gauges/histograms behind a
  ``register_metric`` decorator (``--metrics``).
- :mod:`repro.obs.trace` — sweep → task → run → epoch spans exported as
  JSONL or Chrome trace-event JSON (``--trace``), and
  :func:`timed`, the one timing primitive, which feeds both a span and
  the site's metrics from one pair of clock reads.
- :mod:`repro.obs.log` — the single progress-line helper honouring
  ``--quiet``.

See docs/observability.md for the metric catalogue and trace format.
"""

from repro.obs.log import progress, quiet, set_quiet
from repro.obs.metrics import (
    METRIC_NAMES,
    disable_metrics,
    enable_metrics,
    metrics_enabled,
    register_metric,
    registered_metrics,
    render_prometheus,
    reset_metrics,
    snapshot,
)
from repro.obs.trace import (
    NULL_RECORDER,
    NullRecorder,
    TraceRecorder,
    disable_tracing,
    enable_tracing,
    recorder,
    set_recorder,
    timed,
    tracing_enabled,
)

__all__ = [
    "METRIC_NAMES",
    "NULL_RECORDER",
    "NullRecorder",
    "TraceRecorder",
    "disable_metrics",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "metrics_enabled",
    "progress",
    "quiet",
    "recorder",
    "register_metric",
    "registered_metrics",
    "render_prometheus",
    "reset_metrics",
    "set_quiet",
    "set_recorder",
    "snapshot",
    "timed",
    "tracing_enabled",
]
