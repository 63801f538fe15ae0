"""A kernel error status ends in a named error, never in a wrong result.

``repro_run_span`` and ``repro_warm_sweep`` return ``ST_ERROR`` on a
corrupt context or an empty victim way set; any status the driver does
not know is treated the same.  A fake kernel returns such a status from
one entry point (the other stays real), and the run must raise an error
naming the status, and a sweep must fail without writing the task's
result artifact.
"""

import pytest

from repro.engine import COMPILED, available_engines, compiled
from repro.engine.build import ST_ERROR
from repro.experiment import Experiment
from repro.orchestration.executor import SweepExecutor
from repro.orchestration.store import ResultStore
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator

pytestmark = pytest.mark.skipif(
    COMPILED not in available_engines(), reason="no C toolchain"
)

ENTRY_POINTS = ("repro_run_span", "repro_warm_sweep")
STATUSES = (ST_ERROR, 42)


class _FailingKernel:
    """The loaded kernel, with ``entry`` returning ``status``.  A driver
    that ignores the status would call back in forever; the second call
    fails the test instead."""

    def __init__(self, lib, entry: str, status: int) -> None:
        self._lib = lib
        self._entry = entry
        self._status = status
        self._calls = 0

    def _failing(self, ctx) -> int:
        self._calls += 1
        assert self._calls == 1, f"{self._entry} called again after a bad status"
        return self._status

    def __getattr__(self, name):
        if name == self._entry:
            return self._failing
        return getattr(self._lib, name)


@pytest.fixture(params=[(e, s) for e in ENTRY_POINTS for s in STATUSES],
                ids=lambda p: f"{p[0]}-{p[1]}")
def failing_status(request, monkeypatch):
    """Patch the kernel so one entry point returns a bad status."""
    entry, status = request.param
    kernel = _FailingKernel(compiled.load_kernel(), entry, status)
    monkeypatch.setattr(compiled, "load_kernel", lambda: kernel)
    return status


def _alone(config) -> Experiment:
    return Experiment.alone_run("lbm", system=config)


def test_run_compiled_raises_naming_the_status(failing_status, tiny_two_core):
    task = _alone(tiny_two_core)
    trace = ExperimentRunner().trace_for("lbm", task.system)
    sim = CMPSimulator(task.system, [trace], task.policy)
    with pytest.raises(RuntimeError, match=f"status {failing_status}\\b"):
        compiled.run_compiled(sim)


def test_sweep_fails_the_task_and_writes_no_artifact(
    failing_status, tiny_two_core, tmp_path
):
    store = ResultStore(tmp_path / "store")
    task = _alone(tiny_two_core)
    with SweepExecutor(store, max_workers=1, pool="serial", engine=COMPILED) as sweep:
        # the serial pool runs tasks inline, so the kernel's own error
        # surfaces; a pooled worker would wrap it in a SweepTaskError
        with pytest.raises(RuntimeError, match=f"status {failing_status}\\b"):
            sweep.prefetch([task])
    assert not store.probe(task.task_key())
    assert list(store.keys()) == []
