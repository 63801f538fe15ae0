"""Unit and property tests for the cache's per-set operations (LRU
recency, victim choice, line state) on a one-set geometry."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.cache.set_associative import NO_OWNER, NO_TAG, NO_WAY, SetAssociativeCache


def _one_set(ways):
    return SetAssociativeCache(CacheGeometry(ways * 64, 64, ways))


class TestFind:
    def test_empty_set_misses(self):
        cache = _one_set(4)
        assert cache.find(0, 42) == NO_WAY

    def test_find_after_install(self):
        cache = _one_set(4)
        cache.install(0, 2, tag=42, owner=0, dirty=False)
        assert cache.find(0, 42) == 2

    def test_rejects_zero_ways(self):
        with pytest.raises(ValueError):
            _one_set(0)


class TestVictim:
    def test_prefers_invalid_ways(self):
        cache = _one_set(4)
        cache.install(0, 0, tag=1, owner=0, dirty=False)
        assert cache.victim(0) in (1, 2, 3)

    def test_lru_victim_when_full(self):
        cache = _one_set(4)
        for way in range(4):
            cache.install(0, way, tag=way, owner=0, dirty=False)
        # Way 0 was installed first and never touched again.
        assert cache.victim(0) == 0

    def test_touch_changes_victim(self):
        cache = _one_set(4)
        for way in range(4):
            cache.install(0, way, tag=way, owner=0, dirty=False)
        cache.touch(0, 0)
        assert cache.victim(0) == 1

    def test_victim_respects_way_subset(self):
        cache = _one_set(4)
        for way in range(4):
            cache.install(0, way, tag=way, owner=0, dirty=False)
        assert cache.victim(0, ways=(2, 3)) == 2

    def test_victim_empty_subset_raises(self):
        cache = _one_set(2)
        cache.install(0, 0, tag=1, owner=0, dirty=False)
        cache.install(0, 1, tag=2, owner=0, dirty=False)
        with pytest.raises(ValueError):
            cache.victim(0, ways=())


def _line(cache, set_index, way):
    """``(tag, dirty, owner)`` of (set, way), read from the columns."""
    line = set_index * cache.ways + way
    return cache.tags[line], cache.dirty[line], cache.owner[line]


class TestLineState:
    def test_install_sets_owner_and_dirty(self):
        cache = _one_set(2)
        cache.install(0, 1, tag=7, owner=3, dirty=True)
        assert _line(cache, 0, 1) == (7, 1, 3)

    def test_invalidate_clears_state(self):
        cache = _one_set(2)
        cache.install(0, 0, tag=7, owner=1, dirty=True)
        cache.invalidate(0, 0)
        assert _line(cache, 0, 0) == (NO_TAG, 0, NO_OWNER)

    def test_clean_clears_dirty_only(self):
        cache = _one_set(2)
        cache.install(0, 0, tag=7, owner=1, dirty=True)
        assert cache.flush_way_in_set(0, 0) == 7
        assert _line(cache, 0, 0) == (7, 0, 1)


@given(st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=200))
def test_lru_stack_property(tags):
    """A hit at stack position p would hit in any cache with > p ways.

    Simulate the same access stream against two set sizes; every hit
    in the smaller set must also hit in the larger (Mattson
    inclusion), which is the property UMON's miss curves rely on.
    """
    small, large = _one_set(2), _one_set(4)
    hits_small = hits_large = 0
    for tag in tags:
        for cache, is_small in ((small, True), (large, False)):
            way = cache.find(0, tag)
            if way != NO_WAY:
                cache.touch(0, way)
                if is_small:
                    hits_small += 1
                else:
                    hits_large += 1
            else:
                cache.install(0, cache.victim(0), tag, owner=0, dirty=False)
    assert hits_large >= hits_small


@given(st.lists(st.tuples(st.integers(0, 30), st.booleans()), min_size=1, max_size=150))
def test_recency_stamps_stay_a_strict_stack(accesses):
    """A set's stamps stay unique, the way just used holds the newest
    one, and the victim of a full set holds the oldest."""
    cache = _one_set(4)
    for tag, dirty in accesses:
        way = cache.find(0, tag)
        if way == NO_WAY:
            way = cache.victim(0)
            cache.install(0, way, tag, owner=0, dirty=dirty)
        else:
            cache.touch(0, way)
        stamps = cache.stamp.tolist()
        assert len(set(stamps)) == 4
        assert stamps[way] == max(stamps)
        if cache.valid[0] == 4:
            assert stamps[cache.victim(0)] == min(stamps)
