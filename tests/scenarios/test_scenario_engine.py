"""Scenario engine behaviour: arrivals, departures, phases, energy.

Includes the headline acceptance test: a mid-run departure under
Cooperative Partitioning demonstrably reduces integrated static
energy versus the identical run without the departure.
"""

import pytest

from repro.experiment import Experiment
from repro.orchestration.serialize import run_result_to_dict
from repro.scenarios import (
    Scenario,
    arrival_scenario,
    consolidation_scenario,
    core_arrive,
    phased_scenario,
)
from repro.sim.config import scaled_four_core, scaled_two_core
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator

REFS = 8_000
BENCHMARKS = ("lbm", "soplex")


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


@pytest.fixture(scope="module")
def config():
    return scaled_two_core(refs_per_core=REFS)


def _trace_for(runner, config):
    return lambda benchmark: runner.trace_for(benchmark, config)


@pytest.fixture(scope="module")
def static_run(runner, config):
    return CMPSimulator.for_scenario(
        config, Scenario.static(BENCHMARKS), "cooperative",
        _trace_for(runner, config),
    ).run()


def _mid_window(run, fraction=0.35):
    window_start = run.end_cycle - run.window_cycles
    return window_start + int(run.window_cycles * fraction)


# ----------------------------------------------------------------------
# Static routing equivalence
# ----------------------------------------------------------------------
def test_static_scenario_is_bit_identical_to_classic_run(runner, config, static_run):
    """The degenerate scenario and the trace-list constructor are the
    same code path and produce the same bytes."""
    traces = [runner.trace_for(b, config) for b in BENCHMARKS]
    classic = CMPSimulator(config, traces, "cooperative").run()
    assert run_result_to_dict(classic) == run_result_to_dict(static_run)
    assert static_run.timeline == []
    assert static_run.scenario == "static"


def test_static_scenario_can_opt_into_timeline(runner, config, static_run):
    traces = [runner.trace_for(b, config) for b in BENCHMARKS]
    run = CMPSimulator(
        config, traces, "cooperative", collect_timeline=True
    ).run()
    assert run.timeline, "opt-in timeline must record samples"
    # Observation only: every number outside the timeline is untouched.
    observed = run_result_to_dict(run)
    observed.pop("timeline")
    assert observed == run_result_to_dict(static_run)


# ----------------------------------------------------------------------
# Departure (the acceptance criterion)
# ----------------------------------------------------------------------
def test_departure_reduces_integrated_static_energy(runner, config, static_run):
    """ISSUE acceptance: a mid-run departure under cooperative cuts the
    integrated static energy AND the leakage power rate."""
    scenario = consolidation_scenario(
        BENCHMARKS, [1], _mid_window(static_run), name="depart-test"
    )
    run = CMPSimulator.for_scenario(
        config, scenario, "cooperative", _trace_for(runner, config)
    ).run()
    assert run.static_energy_nj < static_run.static_energy_nj
    assert run.static_power_nw < static_run.static_power_nw
    # The timeline shows the gating edge itself.
    assert run.min_powered_ways() < run.timeline[0].powered_ways
    departs = [s for s in run.timeline if "depart:core1" in s.events]
    assert len(departs) == 1
    # The departed core's window froze at the departure with fewer
    # references than the full target.
    assert run.cores[1].instructions < static_run.cores[1].instructions
    assert run.cores[1].cycles > 0


def test_departure_during_warmup_records_no_window(runner, config):
    """A core leaving before its window opens contributes nothing —
    neither a measured window nor warmup-era instructions leaking into
    the window_instructions energy denominator."""
    scenario = consolidation_scenario(
        BENCHMARKS, [1], 1, name="depart-warmup"
    )  # cycle 1 fires at the first scheduler step, deep inside warmup
    run = CMPSimulator.for_scenario(
        config, scenario, "cooperative", _trace_for(runner, config)
    ).run()
    assert run.cores[1].instructions == 0
    assert run.cores[1].cycles == 0
    # Only the surviving core's measured work is in the denominator.
    assert run.window_instructions == run.cores[0].instructions


def test_departure_releases_ways_without_gating_under_fair_share(
    runner, config, static_run
):
    scenario = consolidation_scenario(
        BENCHMARKS, [1], _mid_window(static_run), name="depart-fair"
    )
    run = CMPSimulator.for_scenario(
        config, scenario, "fair_share", _trace_for(runner, config)
    ).run()
    final = run.timeline[-1]
    assert final.allocations == (config.l2.ways, 0)
    assert final.powered_ways == config.l2.ways  # fair share never gates


def test_departure_retargets_ucp(runner, config, static_run):
    scenario = consolidation_scenario(
        BENCHMARKS, [1], _mid_window(static_run), name="depart-ucp"
    )
    run = CMPSimulator.for_scenario(
        config, scenario, "ucp", _trace_for(runner, config)
    ).run()
    departs = [s for s in run.timeline if s.events]
    assert len(departs) == 1
    # The departed core's target zeroes immediately; the survivor keeps
    # its utility-derived target (its blocks drain lazily) until the
    # next lookahead epoch reallocates the freed capacity.
    assert departs[0].allocations[1] == 0
    assert departs[0].allocations[0] >= 1
    assert all(s.allocations[1] == 0 for s in run.timeline
               if s.cycle >= departs[0].cycle)
    assert run.timeline[-1].powered_ways == config.l2.ways  # UCP never gates


# ----------------------------------------------------------------------
# Arrival
# ----------------------------------------------------------------------
def test_arrival_grants_ways_and_measures_the_late_core(runner, config, static_run):
    scenario = arrival_scenario(
        BENCHMARKS, 1, _mid_window(static_run), name="arrive-test"
    )
    run = CMPSimulator.for_scenario(
        config, scenario, "cooperative", _trace_for(runner, config)
    ).run()
    arrivals = [s for s in run.timeline if any("arrive" in e for e in s.events)]
    assert len(arrivals) == 1
    sample = arrivals[0]
    # The arrival must hold capacity from its first cycle.
    assert sample.allocations[1] >= 1
    assert sample.active_cores == (0, 1)
    # Before the arrival the idle slot's share was gated.
    before = [s for s in run.timeline if s.cycle < sample.cycle]
    assert before and all(
        s.powered_ways < config.l2.ways for s in before
    )
    # The late core completes a full measurement window.
    assert run.cores[1].instructions > 0
    assert run.cores[1].cycles > 0


def test_never_arriving_slot_stays_gated(runner):
    config = scaled_four_core(refs_per_core=4_000)
    scenario = Scenario(
        name="three-of-four",
        events=(
            core_arrive(0, "gobmk", 0),
            core_arrive(1, "gcc", 0),
            core_arrive(2, "perlbench", 0),
        ),
    )
    run = CMPSimulator.for_scenario(
        config, scenario, "cooperative", _trace_for(runner, config)
    ).run()
    assert run.cores[3].benchmark == "(absent)"
    assert run.cores[3].instructions == 0
    # The absent slot's share stays dark the whole run.
    assert all(s.powered_ways < config.l2.ways for s in run.timeline)
    assert all(s.allocations[3] == 0 for s in run.timeline)


# ----------------------------------------------------------------------
# Phase change
# ----------------------------------------------------------------------
def test_phase_change_swaps_the_reference_stream(runner, config, static_run):
    scenario = phased_scenario(
        BENCHMARKS, 1, ["milc"], [_mid_window(static_run)], name="phase-test"
    )
    run = CMPSimulator.for_scenario(
        config, scenario, "cooperative", _trace_for(runner, config)
    ).run()
    phases = [s for s in run.timeline if any("phase" in e for e in s.events)]
    assert len(phases) == 1
    # The run completed with the swapped stream and differs from static.
    assert run.cores[1].instructions > 0
    assert (
        run_result_to_dict(run)["cores"] != run_result_to_dict(static_run)["cores"]
    )


# ----------------------------------------------------------------------
# Runner integration and store round-trip
# ----------------------------------------------------------------------
def test_run_scenario_caches_and_round_trips(tmp_path, config, static_run):
    from repro.orchestration.store import ResultStore

    store = ResultStore(tmp_path / "store")
    cached_runner = ExperimentRunner(store=store)
    scenario = consolidation_scenario(
        BENCHMARKS, [1], _mid_window(static_run), name="store-test"
    )
    spec = Experiment.for_scenario(scenario, system=config, policy="cooperative")
    first = cached_runner.run(spec)
    assert cached_runner.cached(spec) is first
    # A fresh runner sharing the store reads the identical artifact.
    rereader = ExperimentRunner(store=store)
    reread = rereader.run(Experiment.for_scenario(scenario, system=config, policy="cooperative"))
    assert run_result_to_dict(reread) == run_result_to_dict(first)
    assert [s.cycle for s in reread.timeline] == [s.cycle for s in first.timeline]
    assert reread.scenario == "store-test"


def test_simulator_rejects_mismatched_traces(runner, config):
    scenario = Scenario.static(BENCHMARKS)
    traces = [runner.trace_for(b, config) for b in ("soplex", "lbm")]
    with pytest.raises(ValueError, match="does not match"):
        CMPSimulator(config, traces, "cooperative", scenario=scenario)
