"""Unit tests for victim selection: LRU among a way subset
(``SetAssociativeCache.victim``) and UCP's partition-aware selector."""

from repro.cache.geometry import CacheGeometry
from repro.cache.replacement import PartitionAwareVictimSelector
from repro.cache.set_associative import SetAssociativeCache

ALL_WAYS = (0, 1, 2, 3)


def _one_set(ways):
    return SetAssociativeCache(CacheGeometry(ways * 64, 64, ways))


def _full_set(owners):
    cache = _one_set(len(owners))
    for way, owner in enumerate(owners):
        cache.install(0, way, tag=way + 100, owner=owner, dirty=False)
    return cache


class TestLRUSelector:
    def test_picks_lru_among_allowed(self):
        cache = _full_set([0, 0, 1, 1])
        cache.touch(0, 0)
        assert cache.victim(0, (0, 1)) == 1


class TestPartitionAwareSelector:
    """UCP's replacement-driven capacity migration."""

    def test_under_allocated_core_steals_from_over_occupier(self):
        cache = _full_set([1, 1, 1, 0])  # core 1 holds three ways
        selector = PartitionAwareVictimSelector(4)
        selector.set_targets({0: 2, 1: 2})
        victim = selector.select(cache, 0, core=0, ways=ALL_WAYS)
        assert cache.owner[victim] == 1

    def test_at_target_core_recycles_own_lru(self):
        cache = _full_set([0, 0, 1, 1])
        selector = PartitionAwareVictimSelector(4)
        selector.set_targets({0: 2, 1: 2})
        victim = selector.select(cache, 0, core=0, ways=ALL_WAYS)
        assert cache.owner[victim] == 0
        assert victim == 0  # LRU of core 0's lines

    def test_steals_lru_line_of_over_occupier(self):
        cache = _full_set([1, 1, 1, 0])
        cache.touch(0, 0)  # way 0 becomes MRU; ways 1, 2 older
        selector = PartitionAwareVictimSelector(4)
        selector.set_targets({0: 2, 1: 2})
        assert selector.select(cache, 0, core=0, ways=ALL_WAYS) == 1

    def test_invalid_way_always_first(self):
        cache = _full_set([1, 1, 1, 0])
        cache.invalidate(0, 2)
        selector = PartitionAwareVictimSelector(4)
        selector.set_targets({0: 3, 1: 1})
        assert selector.select(cache, 0, core=0, ways=ALL_WAYS) == 2

    def test_without_targets_falls_back_to_own_then_lru(self):
        cache = _full_set([0, 1, 1, 1])
        selector = PartitionAwareVictimSelector(4)
        victim = selector.select(cache, 0, core=0, ways=ALL_WAYS)
        assert victim == 0
