"""Falling back from the C kernel to Python is never silent: each
layer counts its fallbacks in ``repro_kernel_fallbacks_total`` and
prints one note per process."""

from __future__ import annotations

import pytest

from repro.engine import COMPILED, compiled_available
from repro.engine import compiled as compiled_module
from repro.obs import log
from repro.obs.builtin import KERNEL_FALLBACKS
from repro.obs.metrics import enable_metrics
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator
from repro.workloads import trace as trace_module
from repro.workloads.profiles import profile_for


def _fallbacks() -> dict[str, float]:
    return {dict(s.labels)["layer"]: s.value for s in KERNEL_FALLBACKS.collect()}


@pytest.fixture
def fresh_notes(monkeypatch):
    monkeypatch.setattr(log, "_noted", set())


def test_trace_fallback_counts_and_notes_once(
    monkeypatch, capsys, fresh_notes, small_geometry
):
    enable_metrics()

    def unavailable():
        raise RuntimeError("no compiler")

    monkeypatch.setattr(trace_module, "load_kernel", unavailable)
    for seed in range(3):
        trace_module.generate_trace(profile_for("mcf"), small_geometry, 64, 50, seed)
    assert _fallbacks() == {"workloads.trace_gen": 3.0}
    notes = capsys.readouterr().err.splitlines()
    assert notes == ["repro: C kernel unavailable (no compiler); generating traces in Python"]


@pytest.mark.skipif(not compiled_available(), reason="needs the C kernel")
def test_unmodelled_policy_run_counts_and_notes_once(
    monkeypatch, capsys, fresh_notes, tiny_two_core
):
    enable_metrics()
    monkeypatch.setattr(compiled_module, "policy_kind", lambda policy: None)
    runner = ExperimentRunner()
    traces = [runner.trace_for(name, tiny_two_core) for name in ("mcf", "lbm")]
    for _ in range(2):
        CMPSimulator(tiny_two_core, traces, "ucp").run(engine=COMPILED)
    assert _fallbacks() == {"engine.run": 2.0}
    notes = capsys.readouterr().err.splitlines()
    assert notes == [
        "repro: the C kernel does not model UCPPolicy; running it on the python engine"
    ]
