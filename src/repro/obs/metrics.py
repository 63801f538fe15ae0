"""The ``--metrics`` view: a fixed catalogue read from the recorded trace.

The trace recorder (:mod:`repro.obs.trace`) is the one observability
record.  ``--metrics FILE`` turns recording on, as ``--trace`` does,
and after the command renders the Prometheus text exposition from the
events the recorder holds — its own and those each pool worker sent
home with a task — so a dump reads the same on every pool.  Nothing
is counted while the program runs: each metric is a sum or a
histogram over one kind of event (see :func:`_observations` and the
catalogue table in docs/observability.md).  The kernel-span
histograms read the bucket counts each run span carries, so they
count every span, not only those kept under the recorder's
``KERNEL_EVENT_CAP``.

Output is deterministic: metrics render sorted by name, series by
label set and histogram buckets in ascending order, both for the
Prometheus text and for :func:`snapshot`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate
from typing import Iterable, Iterator

from repro.obs.trace import SECONDS_BUCKETS, SIZE_BUCKETS, enable_tracing, recorder

LabelItems = tuple[tuple[str, str], ...]


def enable_metrics() -> None:
    """Turn recording on: the metrics are read from the recorded events."""
    enable_tracing()


@dataclass(frozen=True)
class Metric:
    """One catalogue entry; ``buckets`` is set for a histogram only."""

    name: str
    kind: str
    help: str
    unit: str = ""
    buckets: tuple[float, ...] = ()


def _counter(name: str, help: str) -> Metric:
    return Metric(name, "counter", help)


def _histogram(
    name: str, help: str, unit: str = "seconds",
    buckets: tuple[float, ...] = SECONDS_BUCKETS,
) -> Metric:
    return Metric(name, "histogram", help, unit, buckets)


#: every metric, sorted by name
CATALOGUE = tuple(sorted((
    # -- engine
    _counter("repro_engine_runs_total", "Simulation runs completed, by policy."),
    _counter("repro_engine_epochs_total",
             "Partitioning epochs executed across all runs."),
    _counter("repro_kernel_fallbacks_total",
             "Work the C kernel could have done that ran in Python, by layer."),
    _histogram("repro_kernel_span_refs",
               "References retired per compiled-kernel span.",
               unit="refs", buckets=SIZE_BUCKETS),
    _histogram("repro_kernel_span_seconds", "Wall time per compiled-kernel span."),
    # -- partitioning mechanics (paper section 4)
    _counter("repro_takeover_events_total",
             "Way takeover events observed at run end, by kind."),
    _counter("repro_way_transitions_total", "Way ownership transitions started."),
    _counter("repro_transfer_flushes_total",
             "Dirty-line flushes caused by way transfers."),
    _counter("repro_power_gate_drops_total",
             "Timeline steps where powered-way count dropped (ways gated off)."),
    # -- result store
    _histogram("repro_store_get_seconds", "Latency of ResultStore artifact reads."),
    _histogram("repro_store_put_seconds", "Latency of ResultStore.put_many batches."),
    _counter("repro_store_artifacts_written_total",
             "Artifacts written to the ResultStore."),
    # -- executor
    _histogram("repro_task_wall_seconds",
               "Per-task wall time as reported by the pool backend."),
    _histogram("repro_task_queue_seconds",
               "Per-task time between submit and completion minus run time."),
    _counter("repro_tasks_completed_total",
             "Sweep tasks collected from a pool, by backend and outcome."),
), key=lambda metric: metric.name))


@dataclass(frozen=True)
class Bucketed:
    """Histogram observations counted already: one count per bucket
    (the last above every bound) and the observations' sum."""

    counts: list[int]
    total: float


def _observations(
    events: Iterable[dict],
) -> Iterator[tuple[str, LabelItems, float | Bucketed]]:
    """Every ``(metric, labels, value)`` the events hold: a counter
    adds the value, a histogram observes it (or adds a run span's
    :class:`Bucketed` kernel spans)."""
    for event in events:
        cat, name, args = event["cat"], event["name"], event["args"]
        seconds = event.get("dur", 0.0) / 1e6
        if cat == "engine" and name == "run":
            yield "repro_engine_runs_total", (("policy", args["policy"]),), 1
            yield "repro_engine_epochs_total", (), args["epochs"]
            for kind, count in args["takeover_events"].items():
                yield "repro_takeover_events_total", (("kind", kind),), count
            yield "repro_way_transitions_total", (), args["transitions_started"]
            yield "repro_transfer_flushes_total", (), args["transfer_flushes"]
            yield "repro_power_gate_drops_total", (), args["gate_drops"]
            yield "repro_kernel_span_refs", (), Bucketed(
                args["kernel_refs_buckets"], args["kernel_refs"]
            )
            yield "repro_kernel_span_seconds", (), Bucketed(
                args["kernel_seconds_buckets"], args["kernel_seconds"]
            )
        elif cat == "fallback":
            yield "repro_kernel_fallbacks_total", (("layer", args["layer"]),), 1
        elif cat == "store" and name == "store.get":
            yield "repro_store_get_seconds", (), seconds
        elif cat == "store" and name == "store.put":
            yield "repro_store_put_seconds", (), seconds
            if "artifacts" in args:  # unset when the write raised
                yield "repro_store_artifacts_written_total", (), args["artifacts"]
        elif cat == "pool":
            backend = (("backend", args["backend"]),)
            yield "repro_tasks_completed_total", (
                *backend, ("outcome", args["outcome"]),
            ), 1
            yield "repro_task_wall_seconds", backend, args["seconds"]
            # The span runs from submit to collection; a task that ran
            # inline was never queued.
            if args["backend"] != "serial":
                yield "repro_task_queue_seconds", backend, max(
                    0.0, seconds - args["seconds"]
                )


@dataclass(frozen=True)
class Sample:
    """One rendered time-series value.

    ``suffix`` distinguishes histogram series (``_bucket`` / ``_sum`` /
    ``_count``) from the bare metric name used by counters.
    """

    labels: LabelItems
    value: float
    suffix: str = ""


def _samples(events: Iterable[dict]) -> dict[str, list[Sample]]:
    """Every catalogue metric's samples over ``events``.  A counter
    series appears with its first nonzero count."""
    series: dict[str, dict[LabelItems, list]] = {
        metric.name: {} for metric in CATALOGUE
    }
    for name, labels, value in _observations(events):
        series[name].setdefault(labels, []).append(value)
    samples: dict[str, list[Sample]] = {}
    for metric in CATALOGUE:
        rows: list[Sample] = []
        for labels, values in sorted(series[metric.name].items()):
            if metric.kind == "histogram":
                rows.extend(_histogram_samples(metric.buckets, labels, values))
            elif any(values):
                rows.append(Sample(labels, float(sum(values))))
        samples[metric.name] = rows
    return samples


def _histogram_samples(
    buckets: tuple[float, ...], labels: LabelItems, values: list
) -> Iterator[Sample]:
    counts = [0] * (len(buckets) + 1)
    total = 0.0
    for value in values:
        if isinstance(value, Bucketed):
            counts = [mine + theirs for mine, theirs in zip(counts, value.counts)]
            total += value.total
        else:
            counts[bisect_left(buckets, value)] += 1
            total += value
    cumulative = list(accumulate(counts))
    for bound, count in zip(buckets, cumulative):
        yield Sample(
            labels + (("le", _format_value(bound)),), float(count), "_bucket"
        )
    yield Sample(labels + (("le", "+Inf"),), float(cumulative[-1]), "_bucket")
    yield Sample(labels, total, "_sum")
    yield Sample(labels, float(cumulative[-1]), "_count")


def _format_value(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return {float("inf"): "+Inf", float("-inf"): "-Inf"}.get(value, "NaN")
    as_int = int(value)
    if value == as_int:
        return str(as_int)
    return repr(value)


def _render_labels(labels: LabelItems) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{key}="{_escape_label(value)}"' for key, value in labels
    )
    return "{" + body + "}"


def _escape_label(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def render_prometheus() -> str:
    """Render the catalogue in Prometheus text exposition format, read
    from the process recorder's events."""
    samples = _samples(recorder().events())
    lines: list[str] = []
    for metric in CATALOGUE:
        lines.append(f"# HELP {metric.name} {metric.help}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        for sample in samples[metric.name]:
            lines.append(
                f"{metric.name}{sample.suffix}"
                f"{_render_labels(sample.labels)} {_format_value(sample.value)}"
            )
    return "\n".join(lines) + "\n"


def snapshot() -> dict:
    """JSON-able dump of the process recorder's samples, ordered as
    :func:`render_prometheus` orders them."""
    samples = _samples(recorder().events())
    return {
        metric.name: {
            "kind": metric.kind,
            "samples": [
                {
                    "labels": dict(sample.labels),
                    "value": sample.value,
                    **({"suffix": sample.suffix} if sample.suffix else {}),
                }
                for sample in samples[metric.name]
            ],
        }
        for metric in CATALOGUE
    }
