"""Failure-injection and edge-condition tests.

Exercises the recovery paths the paper only mentions in passing: a new
decision arriving while transitions are still in flight (forced
completion), transitions to power-off that never see donor traffic,
and degenerate workloads (single ring, zero writes).
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.set_associative import SetAssociativeCache
from repro.core.policy import CooperativePartitioningPolicy
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.monitor.sampling import SetSampler
from repro.monitor.umon import UtilityMonitor
from repro.partitioning.base import PolicyStats

GEOMETRY = CacheGeometry(4 * 1024, 64, 8)  # 8 sets


def _policy(threshold=0.05):
    cache = SetAssociativeCache(GEOMETRY)
    memory = MainMemory()
    stats = PolicyStats(2)
    energy = EnergyAccounting(CactiEnergyModel(GEOMETRY, 2))
    monitors = [
        UtilityMonitor(8, SetSampler(GEOMETRY.num_sets, 1)) for _ in range(2)
    ]
    return CooperativePartitioningPolicy(
        cache, memory, energy, stats, monitors, threshold=threshold
    )


def _set_curve(policy, core, hits, accesses):
    atd = policy.monitors[core].atd
    atd.position_hits = hits
    atd.accesses = accesses


class TestConflictingDecisions:
    def test_reversal_mid_transition_is_survivable(self):
        """Give ways to core 0, then immediately reverse the decision
        while the first transition is still in flight."""
        policy = _policy(threshold=0.0)
        _set_curve(policy, 0, [900, 800, 700, 600, 500, 400, 0, 0], 4000)
        _set_curve(policy, 1, [100, 0, 0, 0, 0, 0, 0, 0], 4000)
        policy.decide(1_000)
        assert policy.allocation_of(0) > 4
        # Reverse: now core 1 is the hungry one.
        _set_curve(policy, 0, [100, 0, 0, 0, 0, 0, 0, 0], 4000)
        _set_curve(policy, 1, [900, 800, 700, 600, 500, 400, 0, 0], 4000)
        policy.decide(2_000)
        assert policy.allocation_of(1) > 4
        policy.permissions.check_invariants()
        # The system still runs accesses normally afterwards.
        for address in range(64):
            policy.access_fast(0, address, False, 3_000 + address)
            policy.access_fast(1, 1_000 + address, True, 3_000 + address)
        policy.permissions.check_invariants()

    def test_repeated_oscillation_never_corrupts_state(self):
        policy = _policy(threshold=0.0)
        strong = [900, 800, 700, 600, 500, 400, 0, 0]
        weak = [100, 0, 0, 0, 0, 0, 0, 0]
        now = 0
        for round_index in range(12):
            if round_index % 2:
                _set_curve(policy, 0, strong, 4000)
                _set_curve(policy, 1, weak, 4000)
            else:
                _set_curve(policy, 0, weak, 4000)
                _set_curve(policy, 1, strong, 4000)
            now += 1_000
            policy.decide(now)
            policy.permissions.check_invariants()
            total_owned = sum(
                1 for owner in policy.logical_owner if owner >= 0
            )
            assert total_owned <= 8
            # Every core always keeps at least one writable way.
            for core in range(2):
                assert policy.permissions.writable_ways(core)


class TestPowerOffStragglers:
    def test_stale_to_off_transition_completes_at_next_decision(self):
        policy = _policy(threshold=0.05)
        # Both cores need almost nothing: most ways head for off.
        _set_curve(policy, 0, [500, 400, 0, 0, 0, 0, 0, 0], 2000)
        _set_curve(policy, 1, [500, 400, 0, 0, 0, 0, 0, 0], 2000)
        policy.decide(1_000)
        pending_off = [m for m in policy.engine.transitions.values() if m.to_off]
        assert pending_off  # off-transitions started, nobody accessed yet
        # Next decision force-completes the aged off-transitions even
        # though no donor access ever set their takeover bits.
        policy.decide(2_000)
        assert not any(m.to_off for m in policy.engine.transitions.values())
        assert policy.active_ways() < 8


class TestDegenerateInputs:
    def test_single_set_cache(self):
        geometry = CacheGeometry(512, 64, 8)  # 1 set, 8 ways
        cache = SetAssociativeCache(geometry)
        memory = MainMemory()
        stats = PolicyStats(2)
        energy = EnergyAccounting(CactiEnergyModel(geometry, 2))
        monitors = [UtilityMonitor(8, SetSampler(1, 1)) for _ in range(2)]
        policy = CooperativePartitioningPolicy(
            cache, memory, energy, stats, monitors
        )
        for address in range(32):
            policy.access_fast(address % 2, address, address % 3 == 0, address)
        policy.epoch(1_000)
        policy.permissions.check_invariants()

    def test_zero_utility_everywhere_keeps_floor(self):
        policy = _policy(threshold=0.05)
        _set_curve(policy, 0, [0] * 8, 1000)
        _set_curve(policy, 1, [0] * 8, 1000)
        policy.decide(1_000)
        for core in range(2):
            assert policy.allocation_of(core) >= 1
        policy.permissions.check_invariants()
