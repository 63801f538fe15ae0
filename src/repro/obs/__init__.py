"""Observability: one trace record, the metrics read from it, progress.

Three small modules, all off by default and all zero-overhead when off:

- :mod:`repro.obs.trace` — the recorder: sweep → task → run → epoch
  spans exported as JSONL or Chrome trace-event JSON (``--trace``),
  and :func:`timed`, the one timing primitive.
- :mod:`repro.obs.metrics` — a fixed metric catalogue rendered as
  Prometheus text from the recorded events after the command
  (``--metrics``, which turns recording on as ``--trace`` does).
- :mod:`repro.obs.log` — the single progress-line helper honouring
  ``--quiet``.

See docs/observability.md for the metric catalogue and trace format.
"""

from repro.obs.log import progress, quiet, set_quiet
from repro.obs.metrics import enable_metrics, render_prometheus, snapshot
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
    "NULL_RECORDER",
    "NullRecorder",
    "TraceRecorder",
    "disable_tracing",
    "enable_metrics",
    "enable_tracing",
    "progress",
    "quiet",
    "recorder",
    "render_prometheus",
    "set_quiet",
    "set_recorder",
    "snapshot",
    "timed",
    "tracing_enabled",
]
