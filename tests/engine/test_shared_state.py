"""The compiled engine works on the simulator's own state, not a copy.

The C kernel and the Python tier index the same flat buffers: cache
line columns, per-set clocks and valid counts, the LLC's ``mapped``
lookup column, per-core counters, UMON tag directories, UCP migration
counters and takeover bit vectors.  These tests run corpus scenarios in which cores arrive while
a takeover (cooperative) or a migration (UCP) is in flight, and check:

* the final Python-visible state after a ``compiled`` run equals the
  state after a ``python`` run, field by field;
* arrival warming never silently falls back to the Python warming
  loop: the only Python warm accesses are takeover-completion bails,
  each of which completes a donor's transfer;
* every Python reference runs through ``CMPSimulator._step``: each one
  a compiled run hands back completes a takeover, and a python run
  steps exactly as many references as its cores count.
"""

import pytest

from repro.engine import COMPILED, PYTHON, available_engines
from repro.scenarios.corpus import corpus_scenario
from repro.scenarios.generate import corpus_config
from repro.scenarios.model import ARRIVE
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator

pytestmark = pytest.mark.skipif(
    COMPILED not in available_engines(), reason="no C toolchain"
)

#: corpus scenarios with arrivals during an active takeover/migration
#: under both policies (a 2-core and a 4-core machine; storm-4c-s003
#: also completes a takeover vector while warming an arrival)
SCENARIOS = ("sparse-2c-s002", "storm-4c-s003")
POLICIES = ("ucp", "cooperative")
GOVERNORS = (None, "coordinated")

_runner = ExperimentRunner()


def _simulator(name, policy, governor):
    entry = corpus_scenario(name)
    config = corpus_config(entry.n_cores)
    return CMPSimulator.for_scenario(
        config,
        entry.scenario,
        policy,
        lambda benchmark: _runner.trace_for(benchmark, config),
        governor=governor,
    )


def _busy(sim) -> bool:
    policy = sim.policy
    if hasattr(policy, "engine"):
        return policy.engine.active
    return bool(policy._transitions)


def _state(sim) -> dict:
    """Every Python-visible piece of simulator state the kernel shares."""

    def columns(cache):
        return {
            "tags": cache.tags.tolist(),
            "owner": cache.owner.tolist(),
            "dirty": cache.dirty.tolist(),
            "stamp": cache.stamp.tolist(),
            "clock": cache.clock.tolist(),
            "valid": cache.valid.tolist(),
            "mapped": None if cache.mapped is None else cache.mapped.tolist(),
            "occupancy": cache.core_occupancy.tolist(),
        }

    policy = sim.policy
    stats = sim.stats
    state = {
        "llc": columns(sim.cache),
        "l1": [columns(l1) for l1 in sim.l1],
        "counters": [
            list(column)
            for column in (
                sim.l1_hits, sim.l1_misses,
                sim.l1_writebacks, stats.ways_probed_sum,
                stats.probe_events, stats.writeback_accesses,
                stats.demand_accesses, stats.demand_hits,
                sim.dvfs.stall if sim.dvfs is not None else (),
            )
        ],
        "cores": [
            (core.time, core.position, core.instructions, core.refs_done,
             core.window_open, core.window_closed, core.frozen_cycles)
            for core in sim.cores
        ],
        "banks": sim.memory._bank_free_at.tolist(),
        "atd": [
            {
                "stacks": [
                    atd.stacks[base:base + length].tolist()
                    for base, length in zip(
                        range(0, len(atd.stacks), atd.ways), atd.lengths
                    )
                ],
                "hits": atd.position_hits,
                "misses": atd.misses,
                "accesses": atd.accesses,
            }
            for atd in policy._atds
        ],
    }
    if hasattr(policy, "_transitions"):
        state["ucp"] = {
            core: (t.ways_gained, t.ways_done, t.start_cycle,
                   t.gained_per_set.tolist(), t.complete_sets.tolist())
            for core, t in policy._transitions.items()
        }
        state["targets"] = dict(policy.targets)
    if hasattr(policy, "engine"):
        engine = policy.engine
        state["takeover"] = {
            "vectors": {
                donor: (vector.bits.tolist(), vector.set_count)
                for donor, vector in engine.vectors.items()
            },
            "transitions": sorted(engine.transitions.items()),
            "powered": list(policy.powered),
        }
    return state


@pytest.mark.parametrize("governor", GOVERNORS, ids=lambda g: g or "none")
@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_compiled_run_leaves_the_python_state(name, policy, governor):
    arrivals_mid_transfer = []
    states = {}
    for engine in (PYTHON, COMPILED):
        sim = _simulator(name, policy, governor)
        apply_event = sim._apply_event

        def observe(event, when, sim=sim, apply_event=apply_event):
            if event.kind == ARRIVE and engine == COMPILED:
                arrivals_mid_transfer.append(_busy(sim))
            return apply_event(event, when)

        sim._apply_event = observe
        sim.run(engine)
        states[engine] = _state(sim)
    assert any(arrivals_mid_transfer), "no arrival landed mid-transfer"
    expected, actual = states[PYTHON], states[COMPILED]
    assert expected.keys() == actual.keys()
    for field in expected:
        assert actual[field] == expected[field], field


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("name", SCENARIOS)
def test_arrival_warming_never_falls_back_to_python(name, policy, monkeypatch):
    def python_loop(*args):
        raise AssertionError("warming ran in the Python loop")

    monkeypatch.setattr(CMPSimulator, "_warm_core", python_loop)
    monkeypatch.setattr(CMPSimulator, "_prewarm", python_loop)
    sim = _simulator(name, policy, None)
    warm_line = CMPSimulator._warm_line
    bails = []

    def completion_bail(self, core, index):
        # Only a warming line that completes a takeover vector may run
        # in Python, and it must actually complete one.
        engine = sim.policy.engine
        before = engine.generation
        warm_line(self, core, index)
        bails.append(engine.generation != before)

    monkeypatch.setattr(CMPSimulator, "_warm_line", completion_bail)
    sim.run(COMPILED)
    assert all(bails)
    if (name, policy) == ("storm-4c-s003", "cooperative"):
        assert bails, "the completion bail path was not exercised"
    if policy == "ucp":
        assert not bails


@pytest.mark.parametrize("governor", GOVERNORS, ids=lambda g: g or "none")
def test_reference_bails_run_through_the_reference_step(governor, monkeypatch):
    # sparse-4c-s004 (cooperative) is a scenario whose kernel hands a
    # reference back: its LLC traffic completes a takeover vector.
    sim = _simulator("sparse-4c-s004", "cooperative", governor)
    step = CMPSimulator._step
    completions = []

    def completion_step(self, *args):
        # Every reference the kernel hands back completes a takeover.
        engine = self.policy.engine
        before = engine.generation
        result = step(self, *args)
        completions.append(engine.generation != before)
        return result

    monkeypatch.setattr(CMPSimulator, "_step", completion_step)
    sim.run(COMPILED)
    assert completions, "the kernel handed no reference back"
    assert all(completions)


def test_every_python_reference_runs_through_the_reference_step(monkeypatch):
    sim = _simulator("sparse-4c-s004", "cooperative", None)
    step = CMPSimulator._step
    calls = []

    def counted_step(self, *args):
        calls.append(None)
        return step(self, *args)

    monkeypatch.setattr(CMPSimulator, "_step", counted_step)
    sim.run(PYTHON)
    assert len(calls) == sum(sim.core_columns.core_refs_done) > 0
