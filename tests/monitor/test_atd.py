"""Unit and property tests for the auxiliary tag directory."""

from hypothesis import given
from hypothesis import strategies as st

from repro.monitor.atd import AuxiliaryTagDirectory


class TestRecording:
    def test_first_access_misses(self):
        atd = AuxiliaryTagDirectory(4, [0])
        assert atd.record(0, tag=1) == -1
        assert atd.misses == 1

    def test_immediate_reuse_hits_mru(self):
        atd = AuxiliaryTagDirectory(4, [0])
        atd.record(0, tag=1)
        assert atd.record(0, tag=1) == 0
        assert atd.position_hits[0] == 1

    def test_stack_position_tracks_intervening_tags(self):
        atd = AuxiliaryTagDirectory(4, [0])
        atd.record(0, tag=1)
        atd.record(0, tag=2)
        atd.record(0, tag=3)
        assert atd.record(0, tag=1) == 2  # two distinct tags since

    def test_capacity_eviction(self):
        atd = AuxiliaryTagDirectory(2, [0])
        atd.record(0, tag=1)
        atd.record(0, tag=2)
        atd.record(0, tag=3)  # evicts tag 1
        assert atd.record(0, tag=1) == -1

    def test_sets_are_independent(self):
        atd = AuxiliaryTagDirectory(4, [0, 1])
        atd.record(0, tag=1)
        assert atd.record(1, tag=1) == -1


class TestDecay:
    def test_halving(self):
        atd = AuxiliaryTagDirectory(2, [0])
        atd.position_hits = [10, 4]
        atd.misses = 7
        atd.accesses = 21
        atd.decay(0.5)
        assert atd.position_hits == [5, 2]
        assert atd.misses == 3
        assert atd.accesses == 10

    def test_reset(self):
        atd = AuxiliaryTagDirectory(2, [0])
        atd.position_hits = [10, 4]
        atd.decay(0.0)
        assert atd.position_hits == [0, 0]


@given(st.lists(st.integers(0, 12), min_size=1, max_size=300))
def test_mattson_inclusion(tags):
    """Hits with the first ``ways`` stack positions are monotonically
    non-decreasing in ways — the stack property every UMON miss curve
    rests on."""
    atd = AuxiliaryTagDirectory(8, [0])
    for tag in tags:
        atd.record(0, tag)
    previous = 0
    for ways in range(1, 9):
        hits = sum(atd.hits[:ways])
        assert hits >= previous
        previous = hits
    assert atd.accesses == len(tags)
    assert sum(atd.hits) + atd.misses == atd.accesses


@given(st.lists(st.integers(0, 30), min_size=1, max_size=300))
def test_atd_matches_fully_associative_lru_simulation(tags):
    """The ATD's hit count at full associativity equals a direct
    fully-associative LRU simulation of the same stream."""
    ways = 4
    atd = AuxiliaryTagDirectory(ways, [0])
    stack: list[int] = []
    expected_hits = 0
    for tag in tags:
        atd.record(0, tag)
        if tag in stack:
            position = stack.index(tag)
            if position < ways:
                expected_hits += 1
            stack.remove(tag)
        stack.insert(0, tag)
        del stack[ways:]
    assert sum(atd.hits[:ways]) == expected_hits
