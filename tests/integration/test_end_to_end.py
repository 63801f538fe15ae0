"""Integration tests: whole-system behaviour across modules.

These check the paper's *qualitative* claims on small configurations:
way alignment, dynamic/static energy ordering, takeover progress and
scheme-level invariants that only appear when everything runs
together.
"""

import pytest

from repro.experiment import Experiment
from repro.sim.runner import ExperimentRunner


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


@pytest.fixture(scope="module")
def two_core(tiny_two_core_module):
    return tiny_two_core_module


@pytest.fixture(scope="module")
def tiny_two_core_module():
    from repro.cache.geometry import CacheGeometry
    from repro.sim.config import SystemConfig

    return SystemConfig(
        n_cores=2,
        l1=CacheGeometry(4 * 1024, 64, 4),
        l2=CacheGeometry(32 * 1024, 64, 8),
        l2_latency=15,
        epoch_cycles=40_000,
        umon_interval=4,
        refs_per_core=16_000,
        warmup_refs=3_000,
        flush_bucket_cycles=2_000,
    )


class TestEnergyOrdering:
    """The qualitative energy claims of Figures 6/7."""

    def test_unmanaged_dynamic_is_about_twice_fair_share(self, runner, two_core):
        unmanaged = runner.run(Experiment("G2-8", "unmanaged", two_core))
        fair = runner.run(Experiment("G2-8", "fair_share", two_core))
        ratio = (
            unmanaged.dynamic_energy_per_kiloinstruction
            / fair.dynamic_energy_per_kiloinstruction
        )
        assert 1.6 < ratio < 2.3

    def test_cooperative_probes_fewer_ways_than_fair_share(self, runner, two_core):
        cooperative = runner.run(Experiment("G2-2", "cooperative", two_core))
        assert cooperative.average_ways_probed < 4.6

    def test_ucp_probes_all_ways(self, runner, two_core):
        ucp = runner.run(Experiment("G2-8", "ucp", two_core))
        assert ucp.average_ways_probed == pytest.approx(8.0)

    def test_non_gating_schemes_keep_all_ways_on(self, runner, two_core):
        for policy in ("unmanaged", "fair_share", "ucp"):
            run = runner.run(Experiment("G2-8", policy, two_core))
            assert run.average_active_ways == pytest.approx(8.0)

    def test_cooperative_can_gate_ways(self, runner, two_core):
        run = runner.run(Experiment("G2-2", "cooperative", two_core))
        assert run.average_active_ways <= 8.0


class TestPerformanceSanity:
    def test_weighted_speedups_in_reasonable_band(self, runner, two_core):
        for policy in ("unmanaged", "fair_share", "ucp", "cooperative"):
            run = runner.run(Experiment("G2-6", policy, two_core))
            ws = runner.weighted_speedup_of(run, two_core)
            assert 0.5 < ws < 2.5, policy

    def test_cooperative_close_to_ucp(self, runner, two_core):
        """Paper: CP performs within ~1% of UCP on average; allow a
        wider band for the tiny test configuration."""
        ucp = runner.weighted_speedup_of(
            runner.run(Experiment("G2-6", "ucp", two_core)), two_core
        )
        cp = runner.weighted_speedup_of(
            runner.run(Experiment("G2-6", "cooperative", two_core)), two_core
        )
        assert cp > ucp * 0.85


class TestCooperativeTakeover:
    def test_transitions_progress_and_complete(self, runner, two_core):
        run = runner.run(Experiment("G2-6", "cooperative", two_core))
        stats = run.policy_stats
        if stats.transitions_started:
            assert (
                stats.transitions_completed + stats.transitions_forced
                >= stats.transitions_started * 0.3
            )

    def test_takeover_events_recorded_when_transferring(self, runner, two_core):
        run = runner.run(Experiment("G2-6", "cooperative", two_core))
        stats = run.policy_stats
        if stats.transitions_started:
            assert sum(stats.takeover_events.values()) > 0


class TestWayAlignment:
    """CP's defining property: a core never hits on another's way."""

    def test_final_cache_state_is_way_aligned(self, two_core, runner):
        from repro.engine import available_engines
        from repro.sim.simulator import CMPSimulator

        traces = [runner.trace_for(b, two_core) for b in ("lbm", "bzip2")]
        for engine in available_engines():
            simulator = CMPSimulator(two_core, traces, "cooperative")
            simulator.run(engine)
            policy = simulator.policy
            permissions = policy.permissions
            permissions.check_invariants()
            in_flight = {
                way
                for donor in range(two_core.n_cores)
                for way in policy.engine.ways_of_donor(donor)
            }
            # Only a way in flight from a donor has two readers.
            for way in range(two_core.l2.ways):
                if bin(permissions.rap[way]).count("1") > 1:
                    assert way in in_flight, (engine, way)
            # Outside the in-flight set, a line another core installed
            # is one its new owner inherited: its installer has lost
            # read access to the way, so it can no longer hit on it.
            # (The line need not be clean: a late donor write-hit
            # re-dirties it, and eviction writes it back.)
            cache = simulator.cache
            foreign = 0
            for way in set(range(two_core.l2.ways)) - in_flight:
                owner = (permissions.rap[way] & permissions.wap[way]).bit_length() - 1
                for line in range(way, len(cache.tags), cache.ways):
                    installer = cache.owner[line]
                    if cache.tags[line] < 0 or installer < 0 or installer == owner:
                        continue
                    foreign += 1
                    assert way not in permissions.readable_ways(installer), (
                        engine, way, line,
                    )
            assert foreign, f"{engine}: no way changed hands"


class TestEnergyAccountingConsistency:
    def test_dynamic_energy_grows_with_probe_width(self, runner, two_core):
        fair = runner.run(Experiment("G2-8", "fair_share", two_core))
        unmanaged = runner.run(Experiment("G2-8", "unmanaged", two_core))
        assert (
            unmanaged.dynamic_energy_per_kiloinstruction
            > fair.dynamic_energy_per_kiloinstruction
        )

    def test_static_power_tracks_active_ways(self, runner, two_core):
        cooperative = runner.run(Experiment("G2-2", "cooperative", two_core))
        fair = runner.run(Experiment("G2-2", "fair_share", two_core))
        if cooperative.average_active_ways < 7.5:
            assert cooperative.static_power_nw < fair.static_power_nw
