"""Unit tests for the set-associative cache mechanisms."""

from repro.cache.geometry import CacheGeometry
from repro.cache.set_associative import NO_WAY, SetAssociativeCache


def _cache():
    return SetAssociativeCache(CacheGeometry(16 * 1024, 64, 4))  # 64 sets


def _install(cache, line_address, core, dirty, way):
    """Install ``line_address`` into ``way`` of its set."""
    geometry = cache.geometry
    cache.install(
        geometry.set_index(line_address), way, geometry.tag(line_address),
        core, dirty,
    )


class TestFindAndInstall:
    def test_miss_then_hit(self):
        cache = _cache()
        geometry = cache.geometry
        set_index, tag = geometry.set_index(1000), geometry.tag(1000)
        assert cache.find(set_index, tag) == NO_WAY
        victim = cache.victim(set_index)
        cache.install(set_index, victim, tag, owner=0, dirty=False)
        assert cache.find(set_index, tag) == victim

    def test_install_over_a_valid_line_replaces_it(self):
        cache = _cache()
        geometry = cache.geometry
        set_index = geometry.set_index(1000)
        _install(cache, 1000, core=0, dirty=True, way=0)
        conflicting = geometry.rebuild_line_address(geometry.tag(1000) + 1, set_index)
        _install(cache, conflicting, core=1, dirty=False, way=0)
        assert cache.find(set_index, geometry.tag(1000)) == NO_WAY
        assert cache.find(set_index, geometry.tag(conflicting)) == 0
        assert cache.occupancy_by_core(2) == [0, 1]
        assert cache.valid[set_index] == 1


class TestFlush:
    def test_flush_dirty_line_returns_address(self):
        cache = _cache()
        set_index = cache.geometry.set_index(1000)
        _install(cache, 1000, core=0, dirty=True, way=1)
        assert cache.flush_ways((1,)) == [1000]
        # Line stays valid but clean.
        assert cache.find(set_index, cache.geometry.tag(1000)) == 1
        assert cache.flush_ways((1,)) == []

    def test_flush_clean_line_returns_none(self):
        cache = _cache()
        _install(cache, 1000, core=0, dirty=False, way=1)
        assert cache.flush_ways((1,)) == []

    def test_invalidate_way_returns_dirty_addresses(self):
        cache = _cache()
        dirty_addresses = []
        for set_index in range(0, 8):
            address = cache.geometry.rebuild_line_address(5, set_index)
            _install(cache, address, core=0, dirty=(set_index % 2 == 0), way=2)
            if set_index % 2 == 0:
                dirty_addresses.append(address)
        flushed = cache.invalidate_way(2)
        assert sorted(flushed) == sorted(dirty_addresses)
        assert sum(cache.valid) == 0


def _scan_occupancy(cache, n_cores):
    """Brute-force per-core occupancy (the pre-counter implementation)."""
    counts = [0] * n_cores
    for tag, owner in zip(cache.tags, cache.owner):
        if tag != -1 and 0 <= owner < n_cores:
            counts[owner] += 1
    return counts


class TestOccupancy:
    def test_occupancy_by_core(self):
        cache = _cache()
        _install(cache, 0, core=0, dirty=False, way=0)
        _install(cache, 1, core=0, dirty=False, way=0)
        _install(cache, 2, core=1, dirty=False, way=1)
        assert cache.occupancy_by_core(2) == [2, 1]
        assert sum(cache.valid) == 3

    def test_eviction_moves_the_count_between_cores(self):
        cache = _cache()
        _install(cache, 0, core=0, dirty=False, way=0)
        _install(cache, 64, core=1, dirty=False, way=0)  # same set, same way
        assert cache.occupancy_by_core(2) == [0, 1]

    def test_invalidate_way_decrements_counters(self):
        cache = _cache()
        for set_index in range(4):
            address = cache.geometry.rebuild_line_address(7, set_index)
            _install(cache, address, core=0, dirty=False, way=2)
        _install(cache, 5, core=1, dirty=False, way=1)
        cache.invalidate_way(2)
        assert cache.occupancy_by_core(2) == [0, 1]

    def test_counters_match_a_brute_force_scan_after_a_run(self):
        """The incremental counters stay exact through a full simulation
        (installs, evictions, takeover flushes and power-gating)."""
        from repro.sim.config import scaled_two_core
        from repro.sim.runner import ExperimentRunner

        runner = ExperimentRunner()
        config = scaled_two_core(refs_per_core=4_000)
        from repro.sim.simulator import CMPSimulator
        from repro.workloads.groups import group_benchmarks

        traces = [
            runner.trace_for(benchmark, config)
            for benchmark in group_benchmarks("G2-1")
        ]
        simulator = CMPSimulator(config, traces, "cooperative")
        simulator.run()
        assert simulator.cache.occupancy_by_core(2) == _scan_occupancy(
            simulator.cache, 2
        )
