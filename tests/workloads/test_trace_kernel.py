"""The C trace fill against its Python reference, byte for byte.

``generate_trace`` fills its columns in the C kernel
(``repro_trace_fill``) and runs ``_fill_columns_python`` only when the
kernel cannot load.  The two must emit identical traces from the same
``random.Random`` state: every profile on both machine geometries and
several seeds, the edge cases that exercise unusual draws (phase
wrap-around, single-line regions, ``randrange(1)``), and the raw
MT19937 word stream across the 624-word regeneration boundary.  Both
fills write the gaps, the line addresses and the warming lines as
32-bit ``'i'`` items.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import replace

import pytest

from repro.engine import build, compiled_available
from repro.obs import log
from repro.sim.config import scaled_four_core, scaled_two_core
from repro.workloads import trace as trace_module
from repro.workloads.profiles import (
    BENCHMARK_PROFILES,
    BenchmarkProfile,
    MPKIClass,
    Phase,
    Ring,
    profile_for,
)

pytestmark = pytest.mark.skipif(
    not compiled_available(), reason="no C compiler: only the Python fill runs"
)

GEOMETRIES = {
    "2core": scaled_two_core(),
    "4core": scaled_four_core(),
}
SEEDS = (0, 1, 2012)


def _columns(trace) -> tuple[bytes, ...]:
    """The trace's columns."""
    for column in (trace.gaps, trace.line_addresses, trace.warm_lines):
        assert (column.typecode, column.itemsize) == ("i", 4)
    return tuple(
        column.tobytes()
        for column in (
            trace.gaps, trace.line_addresses, trace.writes, trace.warm_lines
        )
    )


def _in_both(monkeypatch, make):
    """``(C, Python)`` columns of the trace ``make()`` returns."""
    c_columns = _columns(make())

    def unavailable():
        raise RuntimeError("kernel disabled for the reference run")

    with monkeypatch.context() as patch:
        patch.setattr(trace_module, "load_kernel", unavailable)
        patch.setattr(log, "note_fallback", lambda layer, line: None)
        py_columns = _columns(make())
    return c_columns, py_columns


def _both(monkeypatch, profile, geometry, l1_lines, n_refs, seed):
    """``(C trace, Python trace)`` columns for one generator input."""
    return _in_both(
        monkeypatch,
        lambda: trace_module.generate_trace(profile, geometry, l1_lines, n_refs, seed),
    )


@pytest.mark.parametrize("geometry", sorted(GEOMETRIES))
@pytest.mark.parametrize("name", sorted(BENCHMARK_PROFILES))
def test_every_profile_matches_the_python_fill(monkeypatch, name, geometry):
    config = GEOMETRIES[geometry]
    for seed in SEEDS:
        c_cols, py_cols = _both(
            monkeypatch, profile_for(name), config.l2, config.l1.total_lines,
            4_000, seed,
        )
        assert c_cols == py_cols, (name, geometry, seed)


def _profile(rings, phases=(), stream_weight=0.05) -> BenchmarkProfile:
    return BenchmarkProfile(
        name="edge",
        mpki=1.0,
        mpki_class=MPKIClass.MEDIUM,
        apki=300.0,
        l1_fraction=0.5,
        stream_weight=stream_weight,
        rings=rings,
        write_ratio=0.3,
        phases=phases,
    )


LLC = scaled_two_core().l2


class TestEdgeCases:
    @pytest.mark.parametrize(
        "name", sorted(n for n, p in BENCHMARK_PROFILES.items() if p.phases)
    )
    def test_phased_profile_crosses_every_boundary(self, monkeypatch, name):
        profile = profile_for(name)
        n_refs = sum(phase.duration_refs for phase in profile.phases) + 1_000
        c_cols, py_cols = _both(monkeypatch, profile, LLC, 64, n_refs, 1)
        assert c_cols == py_cols

    def test_short_phases_wrap_around(self, monkeypatch):
        rings = (Ring(0.5, "cyclic", 0.3), Ring(2.0, "uniform", 0.2))
        phases = (
            Phase(7, (0.6, 0.1), 0.1),
            Phase(13, (0.0, 0.5), 0.3),
            Phase(1, (0.2, 0.2), 0.0),
        )
        c_cols, py_cols = _both(monkeypatch, _profile(rings, phases), LLC, 64, 3_000, 5)
        assert c_cols == py_cols

    @pytest.mark.parametrize("l1_lines", [1, 2, 3])
    def test_single_line_hot_region(self, monkeypatch, l1_lines):
        # hot_lines == 1, so every hot reference runs randrange(1)
        rings = (Ring(1.0, "uniform", 0.2),)
        c_cols, py_cols = _both(monkeypatch, _profile(rings), LLC, l1_lines, 2_000, 9)
        assert c_cols == py_cols

    def test_single_reference(self, monkeypatch):
        for seed in SEEDS:
            c_cols, py_cols = _both(
                monkeypatch, profile_for("mcf"), LLC, 64, 1, seed
            )
            assert c_cols == py_cols
            assert (len(c_cols[0]), len(c_cols[1])) == (4, 4)

    def test_longest_gaps_fit_32_bits(self, monkeypatch):
        # mean gap ~1e9: the widest gaps the guard lets through
        profile = replace(_profile((Ring(1.0, "cyclic", 0.2),)), apki=1e-6)
        c_cols, py_cols = _both(monkeypatch, profile, LLC, 64, 2_000, 4)
        assert c_cols == py_cols
        gaps = array("i", c_cols[0])
        assert max(gaps) > 1 << 30

    def test_top_ring_region_and_stream(self, monkeypatch):
        # 62 rings, the most the kernel takes: the last one sits just
        # below STREAM_BASE, the highest addresses a ring can hold
        rings = tuple(Ring(1.0, "cyclic", 0.01) for _ in range(62))
        c_cols, py_cols = _both(monkeypatch, _profile(rings), LLC, 64, 3_000, 6)
        assert c_cols == py_cols
        addresses = array("i", c_cols[1])
        top_ring = 62 << trace_module.RING_REGION_BITS
        assert any(top_ring <= a < trace_module.STREAM_BASE for a in addresses)
        assert max(addresses) >= trace_module.STREAM_BASE

    @pytest.mark.parametrize("pattern", ["cyclic", "uniform"])
    def test_single_line_ring(self, monkeypatch, pattern):
        # ways_worth * num_sets rounds to 0, clamped to one line
        rings = (Ring(0.001, pattern, 0.4), Ring(1.0, "cyclic", 0.2))
        c_cols, py_cols = _both(monkeypatch, _profile(rings), LLC, 64, 2_000, 3)
        assert c_cols == py_cols


class TestWordStream:
    def _c_words(self, rng: random.Random, count: int) -> list[int]:
        state = array("I", rng.getstate()[1])
        out = array("I", [0]) * count
        build.load_kernel().repro_mt_words(
            state.buffer_info()[0], count, out.buffer_info()[0]
        )
        return out.tolist()

    @pytest.mark.parametrize("consumed", [0, 1, 620, 623, 624, 625])
    def test_matches_getrandbits_across_regeneration(self, consumed):
        rng = random.Random(2012)
        for _ in range(consumed):
            rng.getrandbits(32)
        words = self._c_words(rng, 2_000)
        assert words == [rng.getrandbits(32) for _ in range(2_000)]

    def test_fresh_state_regenerates_first(self):
        # a freshly seeded generator reports index 624
        rng = random.Random(7)
        assert rng.getstate()[1][-1] == 624
        assert self._c_words(rng, 700) == [rng.getrandbits(32) for _ in range(700)]
