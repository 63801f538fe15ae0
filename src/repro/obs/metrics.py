"""Metrics registry: counters, gauges, and histograms behind one decorator.

The catalogue is a :class:`repro.registry.Registry`, like the policy,
governor and rule registries: metrics are declared once via
:func:`register_metric` (or the :func:`counter` / :func:`gauge` /
:func:`histogram` convenience constructors, which register through the same
path), duplicate names raise, and the built-in catalogue in
``repro.obs.builtin`` loads lazily on first registry lookup.

The whole subsystem is gated on a single module flag so the disabled path is
a handful of attribute loads and one branch per call site: ``inc`` /
``set`` / ``observe`` return immediately unless :func:`enable_metrics` ran
(a warm pool enables it in its workers when the parent had it on).

Pool workers record into their own process's registry.  After each task
a worker drains its counters and histograms with :func:`take_samples` and
ships the document home with the task's result; the parent adds it into
its registry with :func:`merge_samples`, so a ``--metrics`` dump reads the
same on every pool.  Gauges are levels, not deltas, and are not shipped.

Scrape output is deterministic: metric names, label sets, and histogram
buckets all render in sorted order, both for the Prometheus text format
that ``--metrics`` writes and for :func:`snapshot`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

from repro.registry import Registry

METRIC_KINDS = ("counter", "gauge", "histogram")

#: Histogram bucket presets.  Seconds buckets cover sub-millisecond store
#: probes up to multi-second pool tasks; size buckets are powers of two
#: (kernel spans retire up to thousands of references).
SECONDS_BUCKETS = (
    0.0001, 0.0005, 0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 30.0,
)
SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                512.0, 1024.0, 4096.0, 16384.0)

LabelItems = tuple[tuple[str, str], ...]

_enabled = False


def metrics_enabled() -> bool:
    """True when instruments record samples (default: off)."""
    return _enabled


def enable_metrics() -> None:
    global _enabled
    _enabled = True


def disable_metrics() -> None:
    global _enabled
    _enabled = False


@dataclass(frozen=True)
class Sample:
    """One rendered time-series value.

    ``suffix`` distinguishes histogram series (``_bucket`` / ``_sum`` /
    ``_count``) from the bare metric name used by counters and gauges.
    """

    labels: LabelItems
    value: float
    suffix: str = ""


# Collector callables yield the current samples for one metric.
MetricSource = Callable[[], Iterable[Sample]]


@dataclass(frozen=True)
class RegisteredMetric:
    name: str
    kind: str
    help: str
    unit: str
    source: MetricSource
    #: The imperative instrument, when one backs this metric (None for
    #: metrics registered as bare collector functions).
    instrument: "Metric | None" = field(default=None, compare=False)


_REGISTRY: Registry[RegisteredMetric] = Registry(
    "metric", "metrics", modules=("repro.obs.builtin",)
)
#: Live, set-like view of registered metric names (``in``, ``len``).
METRIC_NAMES = _REGISTRY


def register_metric(
    name: str,
    *,
    kind: str,
    help: str = "",
    unit: str = "",
    instrument: "Metric | None" = None,
) -> Callable[[MetricSource], MetricSource]:
    """Register a metric under ``name``; decorates its sample source.

    The decorated callable takes no arguments and yields :class:`Sample`
    rows each scrape.  Most call sites want :func:`counter` /
    :func:`gauge` / :func:`histogram` instead, which build an imperative
    instrument and register its collector through this same decorator.
    """
    if kind not in METRIC_KINDS:
        raise ValueError(
            f"unknown metric kind {kind!r}; expected one of {METRIC_KINDS}"
        )
    if not name or not name.replace("_", "a").isidentifier():
        raise ValueError(f"invalid metric name {name!r}")

    def decorate(source: MetricSource) -> MetricSource:
        _REGISTRY.add(name, source, RegisteredMetric(
            name=name, kind=kind, help=help, unit=unit, source=source,
            instrument=instrument,
        ))
        return source

    return decorate


def unregister_metric(name: str) -> None:
    """Remove a registered metric (tests use this to clean up)."""
    _REGISTRY.remove(name)


def metric_info(name: str) -> RegisteredMetric:
    return _REGISTRY.info(name)


def registered_metrics() -> list[RegisteredMetric]:
    """All metrics, sorted by name for deterministic output."""
    return [_REGISTRY.info(name) for name in sorted(_REGISTRY.names())]


def _label_key(labels: dict[str, str]) -> LabelItems:
    if not labels:
        return ()
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Metric:
    """Base imperative instrument; subclasses add the update verbs."""

    kind = ""

    def __init__(self, name: str):
        self.name = name

    def collect(self) -> Iterable[Sample]:  # pragma: no cover - interface
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover - interface
        raise NotImplementedError


class Counter(Metric):
    kind = "counter"

    def __init__(self, name: str):
        super().__init__(name)
        self._values: dict[LabelItems, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if not _enabled:
            return
        if amount < 0:
            raise ValueError("counters only go up")
        key = _label_key(labels)
        self._values[key] = self._values.get(key, 0.0) + amount

    def collect(self) -> Iterable[Sample]:
        for key in sorted(self._values):
            yield Sample(labels=key, value=self._values[key])

    def reset(self) -> None:
        self._values.clear()

    def take(self) -> list:
        """Every series as a ``[labels, value]`` row, zeroing them."""
        rows = [[key, value] for key, value in sorted(self._values.items())]
        self._values.clear()
        return rows

    def merge(self, rows: list) -> None:
        """Add rows from :meth:`take` (possibly another process's)."""
        for labels, value in rows:
            key = _row_key(labels)
            self._values[key] = self._values.get(key, 0.0) + value


class Gauge(Metric):
    kind = "gauge"

    def __init__(self, name: str):
        super().__init__(name)
        self._values: dict[LabelItems, float] = {}

    def set(self, value: float, **labels: str) -> None:
        if not _enabled:
            return
        self._values[_label_key(labels)] = float(value)

    def collect(self) -> Iterable[Sample]:
        for key in sorted(self._values):
            yield Sample(labels=key, value=self._values[key])

    def reset(self) -> None:
        self._values.clear()


class Histogram(Metric):
    kind = "histogram"

    def __init__(self, name: str, buckets: tuple[float, ...] = SECONDS_BUCKETS):
        super().__init__(name)
        if not buckets or tuple(sorted(buckets)) != tuple(buckets):
            raise ValueError("histogram buckets must be sorted and non-empty")
        self.buckets = tuple(float(b) for b in buckets)
        # Per label-set: [per-bucket counts..., +Inf count], sum.
        self._counts: dict[LabelItems, list[int]] = {}
        self._sums: dict[LabelItems, float] = {}

    def observe(self, value: float, **labels: str) -> None:
        if not _enabled:
            return
        key = _label_key(labels)
        counts = self._counts.get(key)
        if counts is None:
            counts = [0] * (len(self.buckets) + 1)
            self._counts[key] = counts
            self._sums[key] = 0.0
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                counts[index] += 1
                break
        else:
            counts[len(self.buckets)] += 1
        self._sums[key] = self._sums[key] + value

    def collect(self) -> Iterable[Sample]:
        for key in sorted(self._counts):
            counts = self._counts[key]
            cumulative = 0
            for bound, count in zip(self.buckets, counts):
                cumulative += count
                yield Sample(
                    labels=key + (("le", _format_value(bound)),),
                    value=float(cumulative),
                    suffix="_bucket",
                )
            cumulative += counts[-1]
            yield Sample(
                labels=key + (("le", "+Inf"),),
                value=float(cumulative),
                suffix="_bucket",
            )
            yield Sample(labels=key, value=self._sums[key], suffix="_sum")
            yield Sample(labels=key, value=float(cumulative), suffix="_count")

    def reset(self) -> None:
        self._counts.clear()
        self._sums.clear()

    def take(self) -> list:
        """Every series as a ``[labels, bucket counts, sum]`` row,
        zeroing them."""
        rows = [
            [key, self._counts[key], self._sums[key]]
            for key in sorted(self._counts)
        ]
        self.reset()
        return rows

    def merge(self, rows: list) -> None:
        """Add rows from :meth:`take` (possibly another process's)."""
        for labels, counts, total in rows:
            key = _row_key(labels)
            mine = self._counts.setdefault(key, [0] * len(counts))
            for index, count in enumerate(counts):
                mine[index] += count
            self._sums[key] = self._sums.get(key, 0.0) + total


def counter(name: str, help: str = "", unit: str = "") -> Counter:
    instrument = Counter(name)
    register_metric(
        name, kind="counter", help=help, unit=unit, instrument=instrument
    )(instrument.collect)
    return instrument


def gauge(name: str, help: str = "", unit: str = "") -> Gauge:
    instrument = Gauge(name)
    register_metric(
        name, kind="gauge", help=help, unit=unit, instrument=instrument
    )(instrument.collect)
    return instrument


def histogram(
    name: str,
    help: str = "",
    unit: str = "",
    buckets: tuple[float, ...] = SECONDS_BUCKETS,
) -> Histogram:
    instrument = Histogram(name, buckets=buckets)
    register_metric(
        name, kind="histogram", help=help, unit=unit, instrument=instrument
    )(instrument.collect)
    return instrument


def _row_key(labels: Iterable) -> LabelItems:
    """A shipped row's labels (JSON turns the pairs into lists)."""
    return tuple((key, value) for key, value in labels)


def take_samples() -> dict[str, list]:
    """Drain every counter and histogram into a JSON-able document,
    keyed by metric name; series with no samples are left out."""
    document: dict[str, list] = {}
    for spec in registered_metrics():
        if isinstance(spec.instrument, (Counter, Histogram)):
            rows = spec.instrument.take()
            if rows:
                document[spec.name] = rows
    return document


def merge_samples(document: dict[str, list]) -> None:
    """Add a :func:`take_samples` document into this registry."""
    for name, rows in document.items():
        metric_info(name).instrument.merge(rows)


def reset_metrics() -> None:
    """Zero every instrument-backed metric (scrape state, not the registry)."""
    for spec in registered_metrics():
        if spec.instrument is not None:
            spec.instrument.reset()


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
    """Render every registered metric in Prometheus text exposition format."""
    lines: list[str] = []
    for spec in registered_metrics():
        if spec.help:
            lines.append(f"# HELP {spec.name} {spec.help}")
        lines.append(f"# TYPE {spec.name} {spec.kind}")
        for sample in spec.source():
            lines.append(
                f"{spec.name}{sample.suffix}"
                f"{_render_labels(sample.labels)} {_format_value(sample.value)}"
            )
    return "\n".join(lines) + "\n"


def snapshot() -> dict:
    """JSON-able dump of all current samples, deterministically ordered."""
    out: dict = {}
    for spec in registered_metrics():
        rows = [
            {
                "labels": dict(sample.labels),
                "value": sample.value,
                **({"suffix": sample.suffix} if sample.suffix else {}),
            }
            for sample in spec.source()
        ]
        out[spec.name] = {"kind": spec.kind, "samples": rows}
    return out
