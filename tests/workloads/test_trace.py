"""Unit and property tests for synthetic trace generation."""

from array import array
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.geometry import CacheGeometry
from repro.workloads import trace as trace_module
from repro.workloads.profiles import BENCHMARK_PROFILES, Ring, profile_for
from repro.workloads.trace import (
    RING_REGION_BITS, STREAM_BASE, _spread_addresses, generate_trace,
)

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

    def test_rejects_gaps_beyond_32_bits_before_filling(self, monkeypatch):
        profile = replace(profile_for("mcf"), apki=1e-7)  # mean gap ~1e10

        def no_fill():
            raise AssertionError("the fill ran")

        monkeypatch.setattr(trace_module, "_kernel", no_fill)
        with pytest.raises(ValueError, match=r"mcf: APKI 1e-07 "):
            generate_trace(profile, LLC, 64, 1_000)

    def test_gaps_are_32_bit(self):
        trace = generate_trace(profile_for("mcf"), LLC, 64, 1_000, seed=3)
        assert trace.gaps.typecode == "i"
        assert trace.gaps.itemsize == 4

    def test_phases_change_mixture(self):
        profile = profile_for("astar")
        trace = generate_trace(profile, LLC, 64, 120_000, seed=3)
        phase_a = trace.line_addresses[: 25_000]
        phase_b = trace.line_addresses[32_000: 57_000]
        ring2_base = 2 << 24
        in_a = sum(1 for a in phase_a if ring2_base <= a < (3 << 24))
        in_b = sum(1 for a in phase_b if ring2_base <= a < (3 << 24))
        assert in_a > in_b * 2  # the capacity ring fades in phase B


def _no_allocation(monkeypatch):
    """Make every step that allocates a region or a column fail."""

    def allocated(*args):
        raise AssertionError("generate_trace allocated before refusing")

    monkeypatch.setattr(trace_module, "_spread_addresses", allocated)
    monkeypatch.setattr(trace_module, "_kernel", allocated)


def _stub_fill(monkeypatch):
    """Let a trace through every guard without building it: no region
    tables, and one-reference columns from a stub fill."""
    monkeypatch.setattr(trace_module, "_spread_addresses", lambda *args: [args[0]])
    monkeypatch.setattr(trace_module, "_kernel", lambda: None)
    monkeypatch.setattr(
        trace_module, "_fill_columns_python",
        lambda *args: (array("i", [0]), array("i", [0]), array("b", [0])),
    )


class TestAddressBounds:
    """Line addresses are 32-bit: the stream and the rings must fit."""

    def test_rejects_a_stream_past_31_bits_before_allocating(self, monkeypatch):
        # a 2**30 + 1 reference trace would take ~9 GB to build
        _no_allocation(monkeypatch)
        with pytest.raises(ValueError, match=r"^lbm: 1073741825 references"):
            generate_trace(profile_for("lbm"), LLC, 64, (1 << 30) + 1)

    def test_accepts_the_longest_stream(self, monkeypatch):
        _stub_fill(monkeypatch)
        trace = generate_trace(profile_for("lbm"), LLC, 64, 1 << 30)
        assert trace.name == "lbm"

    def test_rejects_a_ring_reaching_the_stream_before_allocating(
        self, monkeypatch
    ):
        # ring 0 starts at 1 << 24; one more layer than fits below the stream
        layers = (STREAM_BASE - (1 << RING_REGION_BITS)) // LLC.num_sets + 1
        profile = replace(profile_for("mcf"), rings=(Ring(layers, "cyclic", 0.5),))
        _no_allocation(monkeypatch)
        with pytest.raises(ValueError, match=r"^mcf: ring 0 \(\d+ lines\) reaches"):
            generate_trace(profile, LLC, 64, 1_000)

    def test_accepts_a_ring_ending_below_the_stream(self, monkeypatch):
        layers = (STREAM_BASE - (1 << RING_REGION_BITS)) // LLC.num_sets
        profile = replace(profile_for("mcf"), rings=(Ring(layers, "cyclic", 0.5),))
        _stub_fill(monkeypatch)
        assert generate_trace(profile, LLC, 64, 1_000).name == "mcf"

    def test_rejects_a_ring_region_at_the_stream_base(self, monkeypatch):
        # ring k lives at (k + 1) << RING_REGION_BITS; ring 63 is STREAM_BASE
        rings = tuple(Ring(0.001, "uniform", 0.01) for _ in range(64))
        profile = replace(profile_for("mcf"), rings=rings, stream_weight=0.0)
        _no_allocation(monkeypatch)
        with pytest.raises(ValueError, match=r"^mcf: ring 63 \(1 lines\) reaches"):
            generate_trace(profile, LLC, 64, 1_000)

    @pytest.mark.parametrize("field, code", [
        ("line_addresses", "q"), ("warm_lines", "q"), ("gaps", "q"), ("writes", "i"),
    ])
    def test_a_column_of_another_width_is_refused(self, field, code):
        # the compiled engine would read it in place at the wrong width
        trace = generate_trace(profile_for("mcf"), LLC, 64, 100, seed=3)
        column = array(code, getattr(trace, field))
        with pytest.raises(TypeError, match=rf"Trace\.{field} must be an array"):
            replace(trace, **{field: column})

    def test_addresses_are_32_bit(self):
        trace = generate_trace(profile_for("libquantum"), LLC, 64, 5_000, seed=3)
        for column in (trace.line_addresses, trace.warm_lines):
            assert (column.typecode, column.itemsize) == ("i", 4)
        assert max(trace.line_addresses) >= STREAM_BASE  # the stream ran
        assert max(trace.warm_lines) < STREAM_BASE


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
