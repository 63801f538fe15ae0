"""Which engine reads the monitors and runs the lookahead at an epoch.

A compiled run binds :class:`repro.engine.compiled.KernelEpoch` on its
policy: every partitioning epoch reads the UMON miss curves once
(``repro_umon_readout`` with a curve buffer), runs the lookahead over
them (``repro_lookahead``) and, after the decision, ages the counters
(``repro_umon_readout`` without one).  The python engine runs the
Python monitors and :func:`lookahead_partition`, the reference that
``tests/monitor`` and ``tests/partitioning`` compare the kernel with.
These tests check, entry point by entry point:

* a compiled UCP and a compiled Cooperative group run make one
  read-out, one lookahead and one ageing per ``policy.epoch`` call, in
  that order, and give the python engine's result;
* an alone run reads its profile curve through the kernel;
* a python-engine run never calls either entry point.
"""

import dataclasses

import pytest

from repro.engine import COMPILED, PYTHON, available_engines
from repro.engine.build import load_kernel
from repro.experiment import Experiment
from repro.orchestration.serialize import run_result_to_dict
from repro.partitioning.base import BaseSharedCachePolicy
from repro.sim.config import scaled_two_core
from repro.sim.runner import ExperimentRunner

pytestmark = pytest.mark.skipif(
    COMPILED not in available_engines(), reason="no C toolchain"
)

#: the scaled two-core system with epochs short enough for a few dozen
#: per run
_SYSTEM = dataclasses.replace(
    scaled_two_core(refs_per_core=20_000), epoch_cycles=50_000
)


@pytest.fixture
def calls(monkeypatch):
    """Log every ``policy.epoch`` call and every call of the two kernel
    entry points, in order."""
    log = []
    lib = load_kernel()
    for name in ("repro_umon_readout", "repro_lookahead"):
        original = getattr(lib, name)

        def wrapper(*args, _name=name, _original=original):
            if _name == "repro_umon_readout":
                log.append("age" if args[6] is None else "read")
            else:
                log.append("lookahead")
            return _original(*args)

        monkeypatch.setattr(lib, name, wrapper)
    epoch = BaseSharedCachePolicy.epoch

    def counted_epoch(self, now):
        log.append("epoch")
        return epoch(self, now)

    monkeypatch.setattr(BaseSharedCachePolicy, "epoch", counted_epoch)
    return log


def _run(policy, engine, calls) -> dict:
    """The group run's result; ``calls`` then holds its calls only."""
    experiment = Experiment("G2-5", policy, _SYSTEM)
    runner = ExperimentRunner(engine=engine)
    for alone in experiment.alone_dependencies():
        runner.run(alone)
    calls.clear()
    return run_result_to_dict(runner.run(experiment))


@pytest.mark.parametrize("policy", ["ucp", "cooperative"])
def test_a_compiled_epoch_reads_decides_and_ages_in_the_kernel(policy, calls):
    python = _run(policy, PYTHON, calls)
    compiled = _run(policy, COMPILED, calls)
    assert compiled == python
    epochs = calls.count("epoch")
    assert epochs >= 10
    assert calls == ["epoch", "read", "lookahead", "age"] * epochs


def test_an_alone_run_reads_its_curves_in_the_kernel(calls):
    alone = Experiment("G2-5", "ucp", _SYSTEM).alone_dependencies()[0]
    python = ExperimentRunner(engine=PYTHON).run(alone)
    calls.clear()
    compiled = ExperimentRunner(engine=COMPILED).run(alone)
    assert compiled == python
    epochs = calls.count("epoch")
    assert epochs >= 10
    # each epoch's curve is read before the policy's epoch, which only
    # ages (unmanaged decides nothing); the run's end reads once more
    assert calls == ["read", "epoch", "age"] * epochs + ["read"]
    assert len(compiled.curves) == epochs + 1


@pytest.mark.parametrize("policy", ["ucp", "cooperative"])
def test_a_python_run_never_calls_a_kernel_epoch_entry_point(policy, calls):
    experiment = Experiment("G2-5", policy, _SYSTEM)
    runner = ExperimentRunner(engine=PYTHON)
    for alone in experiment.alone_dependencies():
        runner.run(alone)
    runner.run(experiment)
    assert "epoch" in calls
    assert set(calls) == {"epoch"}
