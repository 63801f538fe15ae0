"""Unit tests for the Cooperative Partitioning policy."""

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.set_associative import SetAssociativeCache
from repro.core.policy import CooperativePartitioningPolicy
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.monitor.sampling import SetSampler
from repro.monitor.umon import UtilityMonitor
from repro.partitioning.base import PolicyStats

GEOMETRY = CacheGeometry(4 * 1024, 64, 8)  # 8 sets, 8 ways


def _policy(n_cores=2, threshold=0.05):
    cache = SetAssociativeCache(GEOMETRY)
    memory = MainMemory()
    stats = PolicyStats(n_cores)
    energy = EnergyAccounting(CactiEnergyModel(GEOMETRY, n_cores))
    monitors = [
        UtilityMonitor(GEOMETRY.ways, SetSampler(GEOMETRY.num_sets, 1))
        for _ in range(n_cores)
    ]
    policy = CooperativePartitioningPolicy(
        cache, memory, energy, stats, monitors, threshold=threshold
    )
    return policy


class TestInitialState:
    def test_fair_share_initial_partitions(self):
        policy = _policy()
        assert policy.allocation_of(0) == 4
        assert policy.allocation_of(1) == 4
        assert policy.active_ways() == 8
        permissions = policy.permissions
        assert permissions.readable_ways(0) == (0, 1, 2, 3)
        assert permissions.readable_ways(1) == (4, 5, 6, 7)
        assert permissions.writable_ways(0) == (0, 1, 2, 3)
        assert permissions.writable_ways(1) == (4, 5, 6, 7)
        # The access path reads the registers through _core_tables.
        assert policy._core_tables == [
            (0b00001111, 4, (0, 1, 2, 3)),
            (0b11110000, 4, (4, 5, 6, 7)),
        ]
        permissions.check_invariants()

    def test_rejects_indivisible_ways(self):
        cache = SetAssociativeCache(CacheGeometry(4 * 1024, 64, 8))
        memory = MainMemory()
        stats = PolicyStats(3)
        energy = EnergyAccounting(CactiEnergyModel(cache.geometry, 3))
        try:
            CooperativePartitioningPolicy(cache, memory, energy, stats, [])
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError for 8 ways over 3 cores")


class TestAccessPath:
    def test_probes_restricted_to_owned_ways(self, llc_read):
        policy = _policy()
        outcome = llc_read(policy, 0, line_address=100, now=0)
        assert not outcome.hit
        assert outcome.ways_probed == 4

    def test_miss_fills_into_owned_way(self):
        policy = _policy()
        policy.access_fast(0, line_address=100, is_write=False, now=0)
        set_index = GEOMETRY.set_index(100)
        way = policy.cache.find(set_index, GEOMETRY.tag(100))
        writable = policy.permissions.writable_ways(0)
        assert way in writable
        assert policy._core_tables[0][2] == writable

    def test_core_cannot_see_other_cores_data(self, llc_read):
        policy = _policy()
        llc_read(policy, 0, line_address=100, now=0)
        # Core 1 probing the same line misses: the line sits in core
        # 0's ways, which core 1 has no read permission for.
        outcome = llc_read(policy, 1, line_address=100, now=1)
        assert not outcome.hit


class TestDecision:
    def _feed_monitors(self, policy, hits_per_way):
        """Synthesise monitor state: core 0 benefits up to 2 ways,
        core 1 not at all."""
        atd0 = policy.monitors[0].atd
        atd0.position_hits = hits_per_way[0]
        atd0.accesses = sum(hits_per_way[0]) + 100
        atd0.misses = 100
        atd1 = policy.monitors[1].atd
        atd1.position_hits = hits_per_way[1]
        atd1.accesses = sum(hits_per_way[1]) + 100
        atd1.misses = 100

    def test_unallocated_ways_head_to_off(self):
        policy = _policy(threshold=0.05)
        self._feed_monitors(
            policy,
            [[4000, 2000, 0, 0, 0, 0, 0, 0], [3000, 0, 0, 0, 0, 0, 0, 0]],
        )
        policy.decide(now=1000)
        # Both cores shrink toward their knees; leftover ways enter
        # to-off transitions (write permission revoked immediately).
        assert policy.stats.repartitions == 1
        off_target = sum(1 for owner in policy.logical_owner if owner == -1)
        assert off_target >= 3
        policy.permissions.check_invariants()

    def test_transfer_creates_transition_state(self):
        policy = _policy(threshold=0.0)  # UCP-style: all ways allocated
        self._feed_monitors(
            policy,
            [[4000, 3000, 2000, 1500, 1000, 800, 0, 0], [500, 0, 0, 0, 0, 0, 0, 0]],
        )
        policy.decide(now=1000)
        assert policy.allocation_of(0) > 4
        # Donor (core 1) retains read-only access during transition.
        donating = policy.engine.ways_of_donor(1)
        assert donating
        for way in donating:
            assert way in policy.permissions.readable_ways(1)
            assert way not in policy.permissions.writable_ways(1)
            assert way in policy.permissions.writable_ways(0)
        policy.permissions.check_invariants()

    def test_takeover_completion_revokes_donor_read(self):
        policy = _policy(threshold=0.0)
        self._feed_monitors(
            policy,
            [[4000, 3000, 2000, 1500, 1000, 800, 0, 0], [500, 0, 0, 0, 0, 0, 0, 0]],
        )
        policy.decide(now=1000)
        donating = policy.engine.ways_of_donor(1)
        # Recipient touches every set (misses): transition completes.
        for set_index in range(GEOMETRY.num_sets):
            address = GEOMETRY.rebuild_line_address(50 + set_index, set_index)
            policy.access_fast(0, address, False, now=2000 + set_index)
        for way in donating:
            assert way not in policy.permissions.readable_ways(1)
        assert policy.stats.transitions_completed >= len(donating)

    def test_same_allocation_is_not_a_repartition(self):
        policy = _policy()
        self._feed_monitors(
            policy,
            [[1000, 800, 600, 500, 0, 0, 0, 0], [1000, 800, 600, 500, 0, 0, 0, 0]],
        )
        policy.decide(now=1000)
        first = policy.stats.repartitions
        policy.decide(now=2000)
        assert policy.stats.repartitions == first
