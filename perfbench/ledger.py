"""The traced run's per-layer ledger: self time per layer, outside in.

Every layer is a span opened around a call into one of the program's
modules; the wrappers are installed from here, on public functions
and methods, so nothing under ``src/`` changes.  A span's *self* time
is its duration minus the spans nested in it, so the self times of
all layers plus the time outside every span sum to the traced wall
time exactly — that remainder is ``ledger.unattributed_s``.  No span
encloses the sweep as a whole: time a leaf wrapper misses stays
unattributed rather than landing in some parent's self time.

The traced run is one in-process serial sweep, single-threaded, so a
plain stack is enough.  Never install these wrappers in a timed
untraced pass: each one costs a Python frame per call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Iterator


class Ledger:
    """Self time, inclusive time and call count per layer, plus the
    counters the wrappers bump."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        #: open spans: [layer, start, time covered by child spans]
        self._stack: list[list[Any]] = []

    def enter(self, layer: str) -> None:
        self._stack.append([layer, time.perf_counter(), 0.0])

    def exit(self) -> None:
        layer, start, children = self._stack.pop()
        duration = time.perf_counter() - start
        self.self_s[layer] += duration - children
        self.total_s[layer] += duration
        self.calls[layer] += 1
        if self._stack:
            self._stack[-1][2] += duration

    @contextmanager
    def span(self, layer: str) -> Iterator[None]:
        self.enter(layer)
        try:
            yield
        finally:
            self.exit()

    def wrap(self, layer: str, function: Callable) -> Callable:
        """``function`` with every call timed as one ``layer`` span."""

        def timed(*args: Any, **kwargs: Any) -> Any:
            self.enter(layer)
            try:
                return function(*args, **kwargs)
            finally:
                self.exit()

        return timed

    def add(self, layer: str, seconds: float) -> None:
        """Book time measured before the ledger existed (interpreter
        start)."""
        self.self_s[layer] += seconds
        self.total_s[layer] += seconds
        self.calls[layer] += 1

    def to_dict(self) -> dict[str, dict]:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "counts": dict(self.counts),
        }


#: the layers whose self times the ledger attributes; anything else —
#: executor planning, ``ExperimentRunner.run`` bookkeeping, the driver's
#: own work — is ``ledger.unattributed_s``, so a wrapper that stops
#: matching shows up there instead of inside a catch-all parent span
NAMED_LAYERS = (
    "setup.interpreter",
    "setup.import",
    "engine.kernel_load",
    "workloads.trace_gen",
    "sim.construct",
    "sim.run.alone",
    "sim.run.group",
    "sim.run.scenario",
    "engine.c_run_span",
    "engine.c_warm_sweep",
    "partitioning.epoch",
    "dvfs.epoch",
    "orchestration.serialize",
    "orchestration.store_put",
    "orchestration.store_get",
    "orchestration.assemble",
    "obs.trace_store",
)


def attributed_s(self_s: dict[str, float]) -> float:
    """The summed self time of the named layers."""
    return sum(self_s.get(layer, 0.0) for layer in NAMED_LAYERS)


def instrument(ledger: Ledger, kernel: Any | None) -> list[tuple[Any, str, Any]]:
    """Install the layer wrappers on the program's public entry points.

    ``kernel`` is the object ``load_kernel()`` returned (None when the
    compiled engine is unavailable); its two ctypes entry points are
    replaced on that object, which is where ``run_compiled`` looks
    them up on every run.  Returns ``(owner, name, original)`` per
    replaced attribute, for :func:`uninstall`.
    """
    from repro.engine import COMPILED, resolve_engine
    from repro.engine.compiled import policy_kind
    from repro.orchestration import serialize
    from repro.orchestration.store import ResultStore
    from repro.sim import runner as runner_module
    from repro.sim.runner import ExperimentRunner
    from repro.sim.simulator import CMPSimulator

    counts = ledger.counts
    kinds: list[str] = []
    patches: list[tuple[Any, str, Any]] = []

    def patch(owner: Any, name: str, replacement: Callable) -> None:
        patches.append((owner, name, getattr(owner, name)))
        setattr(owner, name, replacement)

    patch(
        runner_module, "generate_trace",
        ledger.wrap("workloads.trace_gen", runner_module.generate_trace),
    )

    runner_run = ExperimentRunner.run

    def kind_tracking_run(self: Any, experiment: Any) -> Any:
        kinds.append(experiment.kind)
        try:
            return runner_run(self, experiment)
        finally:
            kinds.pop()

    patch(ExperimentRunner, "run", kind_tracking_run)

    simulator_init = CMPSimulator.__init__

    def traced_init(self: Any, *args: Any, **kwargs: Any) -> None:
        with ledger.span("sim.construct"):
            simulator_init(self, *args, **kwargs)
            self.policy.epoch = ledger.wrap("partitioning.epoch", self.policy.epoch)
            if self.dvfs is not None:
                self.dvfs.epoch = ledger.wrap("dvfs.epoch", self.dvfs.epoch)

    patch(CMPSimulator, "__init__", traced_init)

    simulator_run = CMPSimulator.run

    def traced_run(self: Any, engine: str | None = None) -> Any:
        kind = kinds[-1] if kinds else "group"
        if resolve_engine(engine) == COMPILED and policy_kind(self.policy) is None:
            counts["engine.python_fallback_runs"] += 1
        with ledger.span(f"sim.run.{kind}"):
            return simulator_run(self, engine)

    patch(CMPSimulator, "run", traced_run)

    if kernel is not None:
        for name, layer in (
            ("repro_run_span", "engine.c_run_span"),
            ("repro_warm_sweep", "engine.c_warm_sweep"),
        ):
            patch(kernel, name, ledger.wrap(layer, getattr(kernel, name)))

    for name in ("get", "get_envelope", "probe"):
        patch(
            ResultStore, name,
            ledger.wrap("orchestration.store_get", getattr(ResultStore, name)),
        )

    put_many = ResultStore.put_many

    def traced_put_many(self: Any, artifacts: Any) -> Any:
        artifacts = list(artifacts)
        results = sum(1 for _key, _payload, kind, _meta in artifacts if kind != "trace")
        counts["orchestration.store_puts"] += results
        # The program's tracer persists one trace artifact per task; that
        # write is tracing cost, not the store's.
        layer = "orchestration.store_put" if results else "obs.trace_store"
        with ledger.span(layer):
            return put_many(self, artifacts)

    patch(ResultStore, "put_many", traced_put_many)

    for name in (
        "run_result_to_dict",
        "alone_result_to_dict",
        "run_result_from_dict",
        "alone_result_from_dict",
    ):
        patch(
            serialize, name,
            ledger.wrap("orchestration.serialize", getattr(serialize, name)),
        )
    return patches


def uninstall(patches: list[tuple[Any, str, Any]]) -> None:
    """Put back the originals :func:`instrument` replaced."""
    for owner, name, original in reversed(patches):
        setattr(owner, name, original)
