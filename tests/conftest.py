"""Shared fixtures for the test suite.

Simulation-based tests use deliberately tiny configurations so the
whole suite stays fast; the benchmark harness is where full-scale
(scaled) runs live.
"""

from __future__ import annotations

from typing import NamedTuple

import pytest

from repro.cache.geometry import CacheGeometry
from repro.sim.config import SystemConfig


class LLCRead(NamedTuple):
    """What one demand read did at the shared cache."""

    hit: bool
    ways_probed: int
    memory_latency: int


def _llc_read(policy, core: int, line_address: int, now: int) -> LLCRead:
    """One demand read through ``policy.access_fast``, the LLC access
    the simulator runs.  ``access_fast`` returns only the memory
    latency; the hit and the probe width are read back from the
    deltas of the policy's ``PolicyStats`` counters."""
    stats = policy.stats
    hits = stats.demand_hits[core]
    probed = stats.ways_probed_sum[core]
    latency = policy.access_fast(core, line_address, False, now)
    return LLCRead(
        hit=stats.demand_hits[core] > hits,
        ways_probed=stats.ways_probed_sum[core] - probed,
        memory_latency=latency,
    )


@pytest.fixture
def llc_read():
    """``llc_read(policy, core, line_address, now) -> LLCRead``: one
    demand read through ``access_fast`` with its outcome."""
    return _llc_read


@pytest.fixture
def tiny_two_core() -> SystemConfig:
    """A minimal two-core system: 64-set 8-way LLC, short traces."""
    return SystemConfig(
        n_cores=2,
        l1=CacheGeometry(4 * 1024, 64, 4),
        l2=CacheGeometry(32 * 1024, 64, 8),
        l2_latency=15,
        epoch_cycles=30_000,
        umon_interval=4,
        refs_per_core=12_000,
        warmup_refs=2_000,
        flush_bucket_cycles=2_000,
    )


@pytest.fixture
def tiny_four_core() -> SystemConfig:
    """A minimal four-core system: 64-set 16-way LLC."""
    return SystemConfig(
        n_cores=4,
        l1=CacheGeometry(4 * 1024, 64, 4),
        l2=CacheGeometry(64 * 1024, 64, 16),
        l2_latency=20,
        epoch_cycles=30_000,
        umon_interval=4,
        refs_per_core=10_000,
        warmup_refs=2_000,
        flush_bucket_cycles=2_000,
    )


@pytest.fixture
def small_geometry() -> CacheGeometry:
    """A small 4-way cache geometry for unit tests."""
    return CacheGeometry(16 * 1024, 64, 4)
