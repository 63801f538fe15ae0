"""Unit and property tests for synthetic trace generation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.workloads.profiles import BENCHMARK_PROFILES, profile_for
from repro.workloads.trace import STREAM_BASE, _spread_addresses, generate_trace

LLC = CacheGeometry(128 * 1024, 64, 8)  # 256 sets


class TestSpreadAddresses:
    def test_small_region_covers_sets_evenly(self):
        addresses = _spread_addresses(0, 64, 256)
        sets = [a & 255 for a in addresses]
        gaps = [b - a for a, b in zip(sets, sets[1:])]
        assert len(set(addresses)) == 64
        assert max(gaps) - min(gaps) <= 1  # evenly spaced

    def test_large_region_layers(self):
        addresses = _spread_addresses(0, 600, 256)
        assert len(set(addresses)) == 600
        sets = [a & 255 for a in addresses]
        counts = {}
        for s in sets:
            counts[s] = counts.get(s, 0) + 1
        assert max(counts.values()) - min(counts.values()) <= 1

    def test_exact_multiple(self):
        addresses = _spread_addresses(0, 512, 256)
        sets = sorted(a & 255 for a in addresses)
        assert sets == sorted(list(range(256)) * 2)


class TestGeneration:
    def test_deterministic(self):
        profile = profile_for("lbm")
        a = generate_trace(profile, LLC, 64, 5_000, seed=1)
        b = generate_trace(profile, LLC, 64, 5_000, seed=1)
        assert a.line_addresses == b.line_addresses
        assert a.gaps == b.gaps
        assert a.writes == b.writes

    def test_seed_changes_trace(self):
        profile = profile_for("lbm")
        a = generate_trace(profile, LLC, 64, 5_000, seed=1)
        b = generate_trace(profile, LLC, 64, 5_000, seed=2)
        assert a.gaps != b.gaps

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            generate_trace(profile_for("lbm"), LLC, 64, 0)

    def test_stream_rate_matches_weight(self):
        profile = profile_for("libquantum")  # stream-dominated
        trace = generate_trace(profile, LLC, 64, 50_000, seed=3)
        stream_refs = sum(1 for a in trace.line_addresses if a >= STREAM_BASE)
        expected = profile.stream_weight * len(trace)
        assert stream_refs == pytest.approx(expected, rel=0.02)

    def test_write_ratio_respected(self):
        profile = profile_for("lbm")
        trace = generate_trace(profile, LLC, 64, 50_000, seed=3)
        ratio = sum(trace.writes) / len(trace)
        assert ratio == pytest.approx(profile.write_ratio, abs=0.02)

    def test_gap_mean_matches_apki(self):
        profile = profile_for("gobmk")
        trace = generate_trace(profile, LLC, 64, 50_000, seed=3)
        instructions_per_ref = trace.instructions / len(trace)
        assert instructions_per_ref == pytest.approx(1000.0 / profile.apki, rel=0.07)

    def test_warm_lines_cover_rings_and_hot(self):
        profile = profile_for("soplex")
        trace = generate_trace(profile, LLC, 64, 1_000, seed=3)
        num_sets = LLC.num_sets
        expected = 32  # hot = l1_lines // 2
        for ring in profile.rings:
            expected += max(1, round(ring.ways_worth * num_sets))
        assert len(trace.warm_lines) == expected
        assert len(set(trace.warm_lines)) == len(trace.warm_lines)

    def test_for_core_caches_each_offset(self):
        trace = generate_trace(profile_for("mcf"), LLC, 64, 1_000, seed=3)
        first = trace.for_core(1 << 40)
        again = trace.for_core(1 << 40)
        assert again[0] is first[0] and again[1] is first[1]
        other = trace.for_core(2 << 40)
        assert other[0] is not first[0] and other[1] is not first[1]
        assert list(first[0]) == [a + (1 << 40) for a in trace.line_addresses]
        assert list(first[1]) == [a + (1 << 40) for a in trace.warm_lines]

    def test_phases_change_mixture(self):
        profile = profile_for("astar")
        trace = generate_trace(profile, LLC, 64, 120_000, seed=3)
        phase_a = trace.line_addresses[: 25_000]
        phase_b = trace.line_addresses[32_000: 57_000]
        ring2_base = 2 << 24
        in_a = sum(1 for a in phase_a if ring2_base <= a < (3 << 24))
        in_b = sum(1 for a in phase_b if ring2_base <= a < (3 << 24))
        assert in_a > in_b * 2  # the capacity ring fades in phase B


@settings(max_examples=15, deadline=None)
@given(
    name=st.sampled_from(sorted(BENCHMARK_PROFILES)),
    n_refs=st.integers(100, 3_000),
)
def test_any_profile_generates_valid_traces(name, n_refs):
    trace = generate_trace(profile_for(name), LLC, 64, n_refs, seed=5)
    assert len(trace) == n_refs
    assert all(g >= 0 for g in trace.gaps)
    assert all(a >= 0 for a in trace.line_addresses)
    assert trace.instructions >= n_refs
