"""Unit tests for result records and policy statistics."""

import pytest

from repro.partitioning.base import PolicyStats
from repro.sim.stats import CoreResult, RunResult


def _core(instructions=100_000, cycles=50_000, accesses=5_000, misses=1_000):
    return CoreResult(
        benchmark="lbm",
        instructions=instructions,
        cycles=cycles,
        llc_demand_accesses=accesses,
        llc_demand_misses=misses,
    )


def _run(stats=None, **overrides):
    values = dict(
        policy="Test",
        cores=[_core()],
        dynamic_energy_nj=1000.0,
        static_energy_nj=2000.0,
        average_active_ways=6.0,
        average_ways_probed=3.0,
        end_cycle=100_000,
        memory_reads=900,
        memory_writebacks=100,
        policy_stats=stats or PolicyStats(1),
        window_instructions=100_000,
        window_cycles=80_000,
    )
    values.update(overrides)
    return RunResult(**values)


class TestCoreResult:
    def test_ipc_and_mpki(self):
        core = _core(instructions=200_000, cycles=100_000, misses=400)
        assert core.ipc == pytest.approx(2.0)
        assert core.mpki == pytest.approx(2.0)

    def test_zero_guards(self):
        core = _core(instructions=0, cycles=0)
        assert core.ipc == 0.0
        assert core.mpki == 0.0


class TestRunResult:
    def test_energy_rates(self):
        run = _run()
        assert run.dynamic_energy_per_kiloinstruction == pytest.approx(10.0)
        assert run.static_power_nw == pytest.approx(2000.0 / 80_000 * 1000)
        assert run.total_energy_nj == pytest.approx(3000.0)

    def test_rate_guards(self):
        run = _run(window_instructions=0, window_cycles=0)
        assert run.dynamic_energy_per_kiloinstruction == 0.0
        assert run.static_power_nw == 0.0

    def test_transition_means(self):
        stats = PolicyStats(2)
        stats.transition_durations = [100, 300]
        stats.pending_transition_ages = [800]
        run = _run(stats=stats)
        assert run.mean_transition_cycles() == pytest.approx(200.0)
        assert run.transition_cycles_lower_bound() == pytest.approx(400.0)

    def test_event_fractions(self):
        stats = PolicyStats(2)
        stats.takeover_events = {
            "donor_hit": 6, "donor_miss": 2, "recipient_hit": 1, "recipient_miss": 1,
        }
        run = _run(stats=stats)
        fractions = run.takeover_event_fractions()
        assert fractions["donor_hit"] == pytest.approx(0.6)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_event_fractions_empty(self):
        run = _run()
        assert set(run.takeover_event_fractions().values()) == {0.0}


class TestPolicyStats:
    def test_flush_bucketing_relative_to_decision(self):
        stats = PolicyStats(2, flush_bucket_cycles=100)
        stats.note_decision(1_000, repartitioned=True)
        stats.note_transfer_flush(1_050)
        stats.note_transfer_flush(1_250, lines=3)
        assert stats.flush_series(3) == [1.0, 0.0, 3.0]

    def test_flush_series_averages_over_repartitions(self):
        stats = PolicyStats(2, flush_bucket_cycles=100)
        stats.note_decision(0, repartitioned=True)
        stats.note_transfer_flush(10)
        stats.note_decision(1_000, repartitioned=True)
        stats.note_transfer_flush(1_020)
        assert stats.flush_series(1) == [1.0]  # 2 flushes / 2 decisions

    def test_flushes_before_any_decision_are_untimed(self):
        stats = PolicyStats(2)
        stats.note_transfer_flush(500)
        assert stats.transfer_flushes == 1
        assert stats.flush_series(2) == [0.0, 0.0]

    def test_average_ways_probed(self):
        stats = PolicyStats(2)
        stats.ways_probed_sum = [40, 20]
        stats.probe_events = [10, 10]
        assert stats.average_ways_probed() == pytest.approx(3.0)

    def test_reset_preserves_shape(self):
        stats = PolicyStats(3)
        stats.demand_accesses[1] = 5
        stats.takeover_events["donor_hit"] = 2
        stats.reset_counters()
        assert stats.demand_accesses.tolist() == [0, 0, 0]
        assert stats.takeover_events["donor_hit"] == 0
        assert stats.n_cores == 3
