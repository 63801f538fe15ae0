"""Property-based invariants over arbitrary legal event schedules.

For any legal schedule the engine must preserve three invariants,
whatever the interleaving of arrivals, departures and phase changes:

* powered ways never exceed the LLC geometry's way count (and never go
  negative) at any timeline observation;
* the incremental per-core occupancy counters match a brute-force
  recount of the cache at run end;
* static energy, recorded cumulatively along the timeline, is monotone
  non-decreasing.
"""

import dataclasses

from hypothesis import given, settings, strategies as st

from repro.scenarios import Scenario, ScenarioEvent
from repro.sim.config import scaled_two_core
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator

#: small benchmark pool spanning streaming / capacity / tiny profiles
_BENCHMARKS = ("lbm", "soplex", "namd", "milc")

#: tiny but multi-epoch run: warmup 2000 refs, epoch 60k cycles
_CONFIG = dataclasses.replace(
    scaled_two_core(refs_per_core=2_500),
    epoch_cycles=60_000,
    warmup_refs=500,
)

#: event times land around the interesting region (prewarm for these
#: traces ends near 2.5-3M cycles; the run tails off near 3.5M)
_CYCLES = st.integers(min_value=1, max_value=3_600_000)

_RUNNER = ExperimentRunner()


@st.composite
def legal_schedules(draw):
    """A legal schedule over 2 core slots."""
    events: list[ScenarioEvent] = []
    arrived = 0
    for core in range(2):
        presence = draw(
            st.sampled_from(("start", "late", "absent" if arrived else "start"))
        )
        if presence == "absent":
            continue
        arrive_cycle = 0 if presence == "start" else draw(_CYCLES)
        benchmark = draw(st.sampled_from(_BENCHMARKS))
        events.append(ScenarioEvent("arrive", core, arrive_cycle, benchmark))
        arrived += 1
        cursor = arrive_cycle
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            cursor = cursor + 1 + draw(st.integers(min_value=0, max_value=400_000))
            kind = draw(st.sampled_from(("phase", "depart")))
            if kind == "phase":
                events.append(
                    ScenarioEvent(
                        "phase", core, cursor, draw(st.sampled_from(_BENCHMARKS))
                    )
                )
            else:
                events.append(ScenarioEvent("depart", core, cursor))
                break
    return Scenario(name="prop", events=tuple(events))


@given(
    scenario=legal_schedules(),
    policy=st.sampled_from(("cooperative", "fair_share", "ucp", "unmanaged")),
)
@settings(max_examples=12, deadline=None)
def test_schedule_invariants(scenario, policy):
    simulator = CMPSimulator.for_scenario(
        _CONFIG,
        scenario,
        policy,
        lambda benchmark: _RUNNER.trace_for(benchmark, _CONFIG),
        collect_timeline=True,
    )
    run = simulator.run()
    ways = _CONFIG.l2.ways

    # Powered ways stay inside the geometry at every observation.
    for sample in run.timeline:
        assert 0 <= sample.powered_ways <= ways
        assert all(0 <= allocation <= ways for allocation in sample.allocations)
    assert 0 <= simulator.policy.active_ways() <= ways

    # Incremental occupancy counters == brute-force recount.
    cache = simulator.cache
    recount = [0] * _CONFIG.n_cores
    for tag, owner in zip(cache.tags, cache.owner):
        if tag != -1 and 0 <= owner < _CONFIG.n_cores:
            recount[owner] += 1
    assert cache.occupancy_by_core(_CONFIG.n_cores) == recount

    # Static energy is cumulative and monotone non-decreasing.
    static_series = [sample.static_energy_nj for sample in run.timeline]
    assert all(b >= a for a, b in zip(static_series, static_series[1:]))
    assert run.static_energy_nj >= 0.0


# ----------------------------------------------------------------------
# Generated scenarios × DVFS governors, through the differential
# harness's own checks: the generator replaces the hand-rolled
# strategy, hypothesis drives its seed/shape space, and every engine
# invariant the suite enforces must hold with a governor attached.
# ----------------------------------------------------------------------
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    shape=st.sampled_from(("storm", "sparse", "churn", "mixed")),
    governor=st.sampled_from(("none", "ondemand", "coordinated")),
    horizon=st.integers(min_value=100_000, max_value=1_500_000),
)
@settings(max_examples=8, deadline=None)
def test_generated_scenarios_survive_governors(seed, shape, governor, horizon):
    from repro.bench.differential import check_live, governor_from_label
    from repro.experiment import Experiment
    from repro.scenarios import generate_scenario

    scenario = generate_scenario(
        seed, 2, shape, horizon_cycles=horizon, benchmarks=_BENCHMARKS
    )
    experiment = Experiment.for_scenario(
        scenario,
        system=_CONFIG,
        policy="cooperative",
        governor=governor_from_label(governor),
    )
    _, violations = check_live(experiment, _RUNNER.trace_for)
    assert violations == []
