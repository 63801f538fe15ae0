"""Unit tests for the baseline shared-cache policies."""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.set_associative import NO_WAY, SetAssociativeCache
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.monitor.sampling import SetSampler
from repro.monitor.umon import UtilityMonitor
from repro.partitioning.base import PolicyStats
from repro.partitioning.cpe import DynamicCPEPolicy
from repro.partitioning.fair_share import FairSharePolicy
from repro.partitioning.registry import POLICY_NAMES
from repro.partitioning.ucp import UCPPolicy
from repro.partitioning.unmanaged import UnmanagedPolicy

GEOMETRY = CacheGeometry(4 * 1024, 64, 8)  # 8 sets, 8 ways


def _parts(n_cores=2):
    cache = SetAssociativeCache(GEOMETRY)
    memory = MainMemory()
    stats = PolicyStats(n_cores)
    energy = EnergyAccounting(CactiEnergyModel(GEOMETRY, n_cores))
    return cache, memory, energy, stats


class TestUnmanaged:
    def test_probes_all_ways(self, llc_read):
        policy = UnmanagedPolicy(*_parts())
        outcome = llc_read(policy, 0, 100, 0)
        assert outcome.ways_probed == 8

    def test_cores_share_everything(self, llc_read):
        policy = UnmanagedPolicy(*_parts())
        llc_read(policy, 0, 100, 0)
        outcome = llc_read(policy, 1, 100, 1)
        assert outcome.hit  # core 1 sees core 0's line


class TestSharedAccessPath:
    """The fill half of ``access_fast``: a miss into a full set evicts
    the LRU line and writes it back only if it is dirty."""

    def _full_set(self, dirty):
        policy = UnmanagedPolicy(*_parts())
        for way in range(8):
            policy.cache.install(0, way, 100 + way, owner=0, dirty=dirty)
        return policy

    def test_dirty_victim_is_written_back(self, llc_read):
        policy = self._full_set(dirty=True)
        outcome = llc_read(policy, 1, GEOMETRY.rebuild_line_address(200, 0), 10)
        assert not outcome.hit
        assert policy.cache.find(0, 100) == NO_WAY  # way 0 was the LRU line
        assert policy.cache.find(0, 200) == 0
        assert policy.memory.writebacks == 1
        assert policy.energy.writebacks == 1
        assert policy.cache.occupancy_by_core(2) == [7, 1]

    def test_clean_victim_is_dropped_silently(self, llc_read):
        policy = self._full_set(dirty=False)
        llc_read(policy, 1, GEOMETRY.rebuild_line_address(200, 0), 10)
        assert policy.cache.find(0, 200) == 0
        assert policy.memory.writebacks == 0
        assert policy.energy.writebacks == 0
        assert policy.cache.occupancy_by_core(2) == [7, 1]


class TestFairShare:
    def test_equal_contiguous_partitions(self):
        policy = FairSharePolicy(*_parts())
        assert policy.partition_of(0) == (0, 1, 2, 3)
        assert policy.partition_of(1) == (4, 5, 6, 7)

    def test_probes_only_own_partition(self, llc_read):
        policy = FairSharePolicy(*_parts())
        outcome = llc_read(policy, 0, 100, 0)
        assert outcome.ways_probed == 4

    def test_cores_isolated(self, llc_read):
        policy = FairSharePolicy(*_parts())
        llc_read(policy, 0, 100, 0)
        outcome = llc_read(policy, 1, 100, 1)
        assert not outcome.hit

    def test_indivisible_ways_rejected(self):
        cache, memory, energy, _ = _parts()
        with pytest.raises(ValueError):
            FairSharePolicy(cache, memory, energy, PolicyStats(3))


class TestUCP:
    def _policy(self):
        cache, memory, energy, stats = _parts()
        monitors = [
            UtilityMonitor(8, SetSampler(GEOMETRY.num_sets, 1)) for _ in range(2)
        ]
        return UCPPolicy(cache, memory, energy, stats, monitors)

    def test_probes_all_ways(self, llc_read):
        policy = self._policy()
        assert llc_read(policy, 0, 100, 0).ways_probed == 8

    def test_repartition_tracks_transitions(self):
        policy = self._policy()
        atd = policy.monitors[0].atd
        atd.position_hits = [900, 800, 700, 600, 500, 400, 0, 0]
        atd.accesses = 4000
        policy.decide(1000)
        assert policy.targets[0] > policy.targets[1]
        assert policy.stats.transitions_started > 0
        assert 0 in policy._transitions

    def test_transition_completes_after_gaining_block_in_every_set(self):
        policy = self._policy()
        atd = policy.monitors[0].atd
        atd.position_hits = [900, 800, 700, 600, 500, 400, 0, 0]
        atd.accesses = 4000
        # Fill the whole cache with core 1's lines first.
        for set_index in range(GEOMETRY.num_sets):
            for way in range(8):
                policy.cache.install(set_index, way, 100 + way, owner=1, dirty=False)
        policy.decide(1000)
        gained = policy.targets[0] - 4
        assert gained > 0
        # Core 0 misses everywhere; each fill steals a core-1 block.
        for round_index in range(gained):
            for set_index in range(GEOMETRY.num_sets):
                address = GEOMETRY.rebuild_line_address(
                    200 + round_index, set_index
                )
                policy.access_fast(0, address, False, 2000 + set_index)
        assert policy.stats.transitions_completed >= 1

    def test_no_repartition_when_allocation_stable(self):
        policy = self._policy()
        for monitor in policy.monitors:
            monitor.atd.position_hits = [100, 50, 25, 10, 5, 2, 1, 0]
            monitor.atd.accesses = 500
        policy.decide(1000)
        first = policy.stats.repartitions
        policy.decide(2000)
        assert policy.stats.repartitions == first


class TestDynamicCPE:
    def _policy(self, profiles):
        cache, memory, energy, stats = _parts()
        return DynamicCPEPolicy(
            cache, memory, energy, stats, profiles=profiles, threshold=0.05
        )

    def test_requires_profiles(self):
        policy = self._policy(None)
        with pytest.raises(RuntimeError):
            policy.decide(0)

    def test_way_aligned_probes(self, llc_read):
        curve = [1000, 500, 250, 100, 100, 100, 100, 100, 100]
        policy = self._policy([list(curve), list(curve)])
        assert llc_read(policy, 0, 100, 0).ways_probed == 4

    def test_repartition_flushes_reassigned_ways(self):
        strong = [10_000, 4_000, 2_000, 500, 400, 350, 320, 310, 305]
        weak = [1_000, 950, 940, 935, 930, 928, 927, 926, 925]
        policy = self._policy([strong, weak])
        # Dirty a line of core 1's in a way core 0 will take over.
        policy.access_fast(1, 100, True, 0)
        policy.decide(1000)
        assert policy.allocation_of(0) > policy.allocation_of(1)
        assert policy.pending_stall >= 0
        # Unallocated ways gate immediately.
        assert policy.active_ways() <= 8

    def test_per_epoch_profiles_cycle(self):
        phase_a = [5_000, 100, 90, 80, 70, 60, 50, 40, 30]
        phase_b = [5_000, 4_000, 3_000, 2_000, 1_000, 500, 250, 100, 50]
        policy = self._policy([[phase_a, phase_b], [list(phase_a), list(phase_a)]])
        policy.decide(1000)
        first = policy.allocation_of(0)
        policy.decide(2000)
        second = policy.allocation_of(0)
        assert first != second  # the profile phases drive repartitions


class TestRegistry:
    def test_all_builtin_names_construct(self):
        from repro.partitioning.registry import build_policy
        from repro.sim.runner import ALL_POLICIES

        for name in ALL_POLICIES:
            cache, memory, energy, stats = _parts()
            monitors = [
                UtilityMonitor(8, SetSampler(GEOMETRY.num_sets, 1)) for _ in range(2)
            ]
            curve = [100, 50, 25, 12, 6, 3, 2, 1, 0]
            policy = build_policy(
                name, cache, memory, energy, stats, monitors,
                profiles=[list(curve), list(curve)],
            )
            assert policy.name == POLICY_NAMES[name]

    def test_unknown_name_rejected(self):
        from repro.partitioning.registry import build_policy

        cache, memory, energy, stats = _parts()
        with pytest.raises(ValueError):
            build_policy("nope", cache, memory, energy, stats)
