"""Unit tests for the private-L1 → shared-LLC access path.

They drive the simulator's own L1 path — ``CMPSimulator._l1_access``
(the L1 probe) and ``CMPSimulator._l1_miss`` (fetch, fill, dirty-victim
writeback) — on a tiny two-core machine whose LLC policy is replaced by
a stub that records every access and scripts its outcome.
"""

from array import array

from repro.cache.geometry import CacheGeometry
from repro.sim.config import SystemConfig
from repro.sim.simulator import CMPSimulator
from repro.workloads.trace import Trace

L1_LATENCY = 2
L2_LATENCY = 15
MEMORY_LATENCY = 400


class _StubLLC:
    """Stands in for ``policy.access_fast``: records each access and
    returns a scripted memory latency (0 on an LLC hit)."""

    def __init__(self):
        self.calls = []
        self.hit = False

    def __call__(self, core, line_address, is_write, now):
        self.calls.append((core, line_address, is_write, now))
        return 0 if self.hit else MEMORY_LATENCY


def _simulator(n_cores=2):
    config = SystemConfig(
        n_cores=n_cores,
        l1=CacheGeometry(1024, 64, 2),  # 8 sets, 16 lines
        l2=CacheGeometry(32 * 1024, 64, 8),
        l1_latency=L1_LATENCY,
        l2_latency=L2_LATENCY,
    )
    traces = [
        Trace(f"t{core}", array("i", [0]), array("q", [0]), array("b", [0]),
              array("q"))
        for core in range(n_cores)
    ]
    sim = CMPSimulator(config, traces, "unmanaged")
    llc = sim._policy_access = _StubLLC()
    return sim, llc


def _read(sim, core_id, address):
    """One L1 read by ``core_id``; returns its latency."""
    return sim._l1_access(core_id, address, False, sim.cores[core_id].time)


def _write_miss(sim, core_id, address):
    """One L1 write that misses (write-allocate); returns its latency."""
    return sim._l1_miss(
        core_id, address, 1, sim.cores[core_id].time,
        address & sim._l1_mask, address >> sim._l1_shift,
    )


def _conflicting(sim, base, k):
    """The ``k``-th other line address in ``base``'s L1 set."""
    geometry = sim.l1[0].geometry
    return geometry.rebuild_line_address(
        geometry.tag(base) + k, geometry.set_index(base)
    )


class TestL1Behaviour:
    def test_l1_hit_never_reaches_llc(self):
        sim, llc = _simulator()
        _read(sim, 0, 100)
        assert len(llc.calls) == 1
        assert _read(sim, 0, 100) == L1_LATENCY
        assert len(llc.calls) == 1
        assert sim.l1_hits[0] == 1

    def test_l1_miss_latency_stacks(self):
        sim, llc = _simulator()
        llc.hit = True
        assert _read(sim, 0, 100) == L1_LATENCY + L2_LATENCY
        assert llc.calls == [(0, 100, False, 0)]
        assert sim.l1_misses[0] == 1

    def test_llc_miss_adds_memory_latency(self):
        sim, llc = _simulator()
        assert _read(sim, 0, 100) == L1_LATENCY + L2_LATENCY + MEMORY_LATENCY

    def test_private_l1s(self):
        sim, llc = _simulator()
        _read(sim, 0, 100)
        _read(sim, 1, 100)
        assert sim.l1_misses.tolist() == [1, 1]  # no sharing between L1s


class TestWritebackPath:
    def test_dirty_eviction_writes_through_llc(self):
        sim, llc = _simulator()
        # Write a line, then evict it by filling its set with 2 more
        # lines (2-way L1).
        base = 100
        _write_miss(sim, 0, base)
        _read(sim, 0, _conflicting(sim, base, 1))
        _read(sim, 0, _conflicting(sim, base, 2))
        writebacks = [call for call in llc.calls if call[2]]
        assert len(writebacks) == 1
        assert writebacks[0][1] == base
        assert sim.l1_writebacks[0] == 1
        # The fetch reaches the LLC before the victim's writeback.
        assert not llc.calls[-2][2] and llc.calls[-1][2]

    def test_clean_eviction_is_silent(self):
        sim, llc = _simulator()
        base = 100
        _read(sim, 0, base)
        for k in (1, 2):
            _read(sim, 0, _conflicting(sim, base, k))
        writebacks = [call for call in llc.calls if call[2]]
        assert not writebacks
        assert sim.l1_writebacks[0] == 0
