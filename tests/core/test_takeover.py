"""Unit tests for takeover vectors and the cooperative takeover engine."""

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.set_associative import NO_TAG, SetAssociativeCache
from repro.core.takeover import TO_OFF, TakeoverEngine, TakeoverVector, WayTransition
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.partitioning.base import PolicyStats

GEOMETRY = CacheGeometry(2 * 1024, 64, 4)  # 8 sets, 4 ways


def _engine():
    cache = SetAssociativeCache(GEOMETRY)
    memory = MainMemory()
    stats = PolicyStats(2)
    energy = EnergyAccounting(CactiEnergyModel(GEOMETRY, 2))
    return TakeoverEngine(cache, memory, energy, stats), cache, memory, stats


class TestTakeoverVector:
    def test_mark_and_complete(self):
        vector = TakeoverVector(4)
        assert not vector.complete
        assert vector.mark(0)
        assert not vector.mark(0)  # already set
        for s in (1, 2, 3):
            vector.mark(s)
        assert vector.complete

    def test_reset(self):
        vector = TakeoverVector(4)
        vector.mark(0)
        vector.reset()
        assert vector.set_count == 0
        assert not vector.bits[0]


class TestEngineProtocol:
    def test_donor_access_flushes_and_marks(self):
        engine, cache, memory, stats = _engine()
        # Core 1 owns way 2 with dirty data in set 3.
        cache.install(3, 2, 9, owner=1, dirty=True)
        engine.begin([WayTransition(way=2, donor=1, recipient=0, start_cycle=0)])

        completed = engine.on_access(core=1, set_index=3, hit=True, now=10)
        assert not completed
        assert memory.writebacks == 1  # the dirty line was flushed
        line = 3 * GEOMETRY.ways + 2
        assert not cache.dirty[line]  # but stays valid and clean
        assert cache.tags[line] != NO_TAG
        assert stats.takeover_events["donor_hit"] == 1

    def test_recipient_access_marks_donor_vector(self):
        engine, cache, memory, stats = _engine()
        engine.begin([WayTransition(way=2, donor=1, recipient=0, start_cycle=0)])
        engine.on_access(core=0, set_index=5, hit=False, now=10)
        assert engine.vectors[1].bits[5]
        assert stats.takeover_events["recipient_miss"] == 1

    def test_second_access_to_set_does_nothing(self):
        engine, cache, memory, stats = _engine()
        engine.begin([WayTransition(way=2, donor=1, recipient=0, start_cycle=0)])
        engine.on_access(core=1, set_index=0, hit=True, now=1)
        engine.on_access(core=0, set_index=0, hit=False, now=2)
        total_events = sum(stats.takeover_events.values())
        assert total_events == 1  # the bit was already set

    def test_completion_after_all_sets(self):
        engine, cache, memory, stats = _engine()
        engine.begin([WayTransition(way=2, donor=1, recipient=0, start_cycle=0)])
        completed = []
        for set_index in range(GEOMETRY.num_sets):
            completed = engine.on_access(core=0, set_index=set_index, hit=False, now=set_index)
        assert list(completed) == [1]
        assert engine.pop_donor(1)[0].way == 2
        assert not engine.active

    def test_unrelated_core_does_not_progress(self):
        engine, cache, memory, stats = _engine()
        # Four-core style: core 3 is neither donor nor recipient.
        stats4 = PolicyStats(4)
        engine.stats = stats4
        engine.begin([WayTransition(way=1, donor=0, recipient=1, start_cycle=0)])
        engine.on_access(core=3, set_index=0, hit=True, now=1)
        assert engine.vectors[0].set_count == 0

    def test_begin_resets_existing_vector(self):
        engine, cache, memory, stats = _engine()
        engine.begin([WayTransition(way=1, donor=0, recipient=1, start_cycle=0)])
        engine.on_access(core=1, set_index=0, hit=False, now=1)
        assert engine.vectors[0].set_count == 1
        # A second decision makes core 0 donate another way: per the
        # paper the vector resets and the first transfer takes longer.
        engine.begin([WayTransition(way=2, donor=0, recipient=1, start_cycle=5)])
        assert engine.vectors[0].set_count == 0

    def test_force_complete_flushes_everything(self):
        engine, cache, memory, stats = _engine()
        for set_index in range(GEOMETRY.num_sets):
            cache.install(set_index, 3, 7, owner=1, dirty=True)
        engine.begin([WayTransition(way=3, donor=1, recipient=0, start_cycle=0)])
        moves = engine.force_complete(1, now=100)
        assert [m.way for m in moves] == [3]
        assert memory.writebacks == GEOMETRY.num_sets
        assert stats.transitions_forced == 1
        assert not engine.active

    def test_to_off_transition(self):
        engine, cache, memory, stats = _engine()
        engine.begin([WayTransition(way=0, donor=0, recipient=TO_OFF, start_cycle=0)])
        assert engine.transitions[0].to_off
        assert engine.receiving_ways(0) == ()  # off has no recipient
        for set_index in range(GEOMETRY.num_sets):
            engine.on_access(core=0, set_index=set_index, hit=True, now=set_index)
        assert not engine.active or engine.vectors[0].complete
