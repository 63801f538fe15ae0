"""Shared fixtures for the test suite.

Simulation-based tests use deliberately tiny configurations so the
whole suite stays fast; the benchmark harness is where full-scale
(scaled) runs live.
"""

from __future__ import annotations

import json
from io import BytesIO

import pytest

from repro.cache.geometry import CacheGeometry
from repro.orchestration.pools import remote_main
from repro.sim.config import SystemConfig


class StubTransport:
    """An ssh-pool transport that runs the remote protocol in-process,
    capturing each request document."""

    def __init__(self) -> None:
        self.requests: list[dict] = []

    def run(self, request: bytes) -> bytes:
        self.requests.append(json.loads(request))
        out = BytesIO()
        remote_main(BytesIO(request), out)
        return out.getvalue()


@pytest.fixture
def stub_transport() -> StubTransport:
    """A fresh :class:`StubTransport` (share it across hosts with
    ``transport_factory=lambda host: stub_transport``)."""
    return StubTransport()


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
