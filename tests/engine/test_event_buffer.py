"""A full kernel event buffer is a resume point, never a wrong result.

The kernel records dict-order-sensitive side effects (flush timelines,
transfer-flush buckets, transition durations) into a fixed buffer and
returns ``ST_EVBUF_FULL`` once fewer than its per-reference headroom
(2,048 triples) remain; Python replays the buffer and calls back in.
With the capacity shrunk to 2,049 triples, every span and every warm
sweep bails as soon as it holds more than one triple, so these runs
cross the resume path thousands of times.  Their results must still be
byte-identical to a default-capacity run and to the python engine.
"""

import json

import pytest

from repro.engine import COMPILED, PYTHON, available_engines, compiled
from repro.orchestration.serialize import run_result_to_dict
from repro.scenarios.corpus import corpus_scenario
from repro.scenarios.generate import corpus_config
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator

pytestmark = pytest.mark.skipif(
    COMPILED not in available_engines(), reason="no C toolchain"
)

#: storm-4c-s003 under cooperative partitioning warms an arrival while a
#: takeover is in flight; consolidation-4c-s000 is the UCP corpus run
#: with the most events in one span (most UCP runs write nothing back)
CASES = (("storm-4c-s003", "cooperative"), ("consolidation-4c-s000", "ucp"))

_runner = ExperimentRunner()


class _CountingKernel:
    """The loaded kernel, counting span and warm-sweep calls."""

    def __init__(self, lib) -> None:
        self._lib = lib
        self.calls = 0

    def __getattr__(self, name):
        function = getattr(self._lib, name)
        if name not in ("repro_run_span", "repro_warm_sweep"):
            return function

        def counted(*args):
            self.calls += 1
            return function(*args)

        return counted


def _run(name, policy, engine, monkeypatch):
    """Serialized result of one corpus run, plus its kernel calls."""
    kernel = _CountingKernel(compiled.load_kernel())
    with monkeypatch.context() as patch:
        patch.setattr(compiled, "load_kernel", lambda: kernel)
        entry = corpus_scenario(name)
        config = corpus_config(entry.n_cores)
        sim = CMPSimulator.for_scenario(
            config,
            entry.scenario,
            policy,
            lambda benchmark: _runner.trace_for(benchmark, config),
        )
        run = sim.run(engine)
    payload = json.dumps(run_result_to_dict(run), sort_keys=True)
    return payload, kernel.calls


@pytest.mark.parametrize("name,policy", CASES)
def test_overflowing_event_buffer_resumes_bit_identically(name, policy, monkeypatch):
    reference, _ = _run(name, policy, PYTHON, monkeypatch)
    default, default_calls = _run(name, policy, COMPILED, monkeypatch)
    monkeypatch.setattr(compiled, "_EVBUF_TRIPLES", 2049)
    tiny, tiny_calls = _run(name, policy, COMPILED, monkeypatch)
    assert default == reference
    assert tiny == default
    assert tiny_calls > default_calls
