"""Unit tests for the banked DRAM model.

Demand reads are charged inline by the LLC's miss path, so the read
cases drive ``BaseSharedCachePolicy.access_fast`` with misses on an
empty unmanaged cache, the way the simulator does.
"""

import pytest

from repro.cache.geometry import CacheGeometry
from repro.cache.memory import MainMemory
from repro.cache.set_associative import SetAssociativeCache
from repro.energy.accounting import EnergyAccounting
from repro.energy.cacti import CactiEnergyModel
from repro.partitioning.base import PolicyStats
from repro.partitioning.unmanaged import UnmanagedPolicy

LLC = CacheGeometry(4 * 1024, 64, 8)  # 8 sets


def _llc(memory):
    """An empty unmanaged LLC in front of ``memory``."""
    return UnmanagedPolicy(
        SetAssociativeCache(LLC), memory,
        EnergyAccounting(CactiEnergyModel(LLC, 1)), PolicyStats(1),
    )


def _read(llc, line_address, now):
    """One LLC demand read (a miss: every line here is read once);
    returns its memory latency."""
    return llc.access_fast(0, line_address, False, now)


class TestReads:
    def test_uncontended_read_latency(self):
        memory = MainMemory(latency=400, n_banks=8, bank_busy=40)
        assert _read(_llc(memory), 0, now=0) == 400
        assert memory.reads == 1

    def test_same_bank_contention(self):
        memory = MainMemory(latency=400, n_banks=8, bank_busy=40)
        llc = _llc(memory)
        _read(llc, 0, now=0)
        # Same bank (same address modulo banks) immediately after.
        assert _read(llc, 8, now=0) == 440
        assert memory.read_stall_cycles == 40

    def test_different_banks_no_contention(self):
        memory = MainMemory(latency=400, n_banks=8, bank_busy=40)
        llc = _llc(memory)
        _read(llc, 0, now=0)
        assert _read(llc, 1, now=0) == 400

    def test_bank_frees_over_time(self):
        memory = MainMemory(latency=400, n_banks=8, bank_busy=40)
        llc = _llc(memory)
        _read(llc, 0, now=0)
        assert _read(llc, 8, now=100) == 400

    def test_llc_hit_never_reaches_memory(self):
        memory = MainMemory(latency=400, n_banks=8, bank_busy=40)
        llc = _llc(memory)
        _read(llc, 0, now=0)
        assert _read(llc, 0, now=0) == 0
        assert memory.reads == 1
        assert memory.read_stall_cycles == 0

    def test_rejects_zero_banks(self):
        with pytest.raises(ValueError):
            MainMemory(n_banks=0)


class TestWritebacks:
    def test_writeback_occupies_bank(self):
        memory = MainMemory(latency=400, n_banks=8, bank_busy=40)
        memory.writeback(0, now=0)
        assert memory.writebacks == 1
        # delayed by the writeback
        assert _read(_llc(memory), 8, now=0) == 440

    def test_burst_drain_time(self):
        memory = MainMemory(latency=400, n_banks=2, bank_busy=40)
        # Four lines over two banks: two per bank, 80 cycles to drain.
        drain = memory.writeback_burst([0, 1, 2, 3], now=0)
        assert drain == 80
        assert memory.writebacks == 4

    def test_empty_burst_is_free(self):
        memory = MainMemory()
        assert memory.writeback_burst([], now=0) == 0


class TestFlushTimeline:
    def test_buckets_accumulate(self):
        memory = MainMemory()
        memory.flush_bucket_cycles = 100
        memory.writeback(0, now=50)
        memory.writeback(1, now=60)
        memory.writeback(2, now=150)
        assert memory.flush_series(3) == [2, 1, 0]

    def test_reset_statistics(self):
        memory = MainMemory()
        _read(_llc(memory), 0, 0)
        memory.writeback(1, 0)
        memory.reset_statistics()
        assert memory.reads == 0
        assert memory.writebacks == 0
        assert memory.flush_series(2) == [0, 0]
