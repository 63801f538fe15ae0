"""Cores read their traces in place.

Each application runs in its own address space, the core's ``offset``
(``CoreState.offset``), which every reader of an address adds: the
python loop, the warming paths and the C kernel.  No core holds a copy
of its trace.  These tests check:

* slots that run the same benchmark bind the trace's own buffers, and
  the kernel's trace columns point at them;
* building a simulator allocates no per-core copy of a trace;
* every line a run leaves in the caches lies in its owner's address
  space, on every engine.
"""

import tracemalloc
from dataclasses import replace

import pytest

from repro.engine import available_engines
from repro.sim.cpu import CORE_ADDRESS_SPACE_BITS
from repro.sim.runner import ExperimentRunner
from repro.sim.simulator import CMPSimulator

#: two benchmarks, each run by two of the four slots
_MIX = ("mcf", "lbm", "mcf", "lbm")


def _traces(config):
    runner = ExperimentRunner()
    return [runner.trace_for(name, config) for name in _MIX]


def test_slots_running_one_benchmark_share_its_buffers(tiny_four_core):
    traces = _traces(tiny_four_core)
    sim = CMPSimulator(tiny_four_core, traces, "unmanaged")
    columns = sim.core_columns
    for core, trace in zip(sim.cores, traces):
        assert core.addresses is trace.line_addresses
        assert core.warm_lines is trace.warm_lines
        assert core.gaps is trace.gaps
        assert core.offset == (core.core_id + 1) << CORE_ADDRESS_SPACE_BITS
    for first, second in ((0, 2), (1, 3)):
        for name in ("trace_gaps", "trace_addr", "trace_writes", "warm_lines"):
            column = getattr(columns, name)
            assert column[first] == column[second], name
    assert columns.trace_addr[0] != columns.trace_addr[1]


def test_building_a_simulator_copies_no_trace(tiny_four_core):
    config = replace(tiny_four_core, refs_per_core=50_000)
    traces = _traces(config)
    column_bytes = min(
        len(trace.line_addresses) * trace.line_addresses.itemsize
        for trace in traces
    )
    tracemalloc.start()
    try:
        CMPSimulator(config, traces, "cooperative")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < column_bytes, (peak, column_bytes)


def _lines(cache):
    """``(line address, owner)`` of every valid line of ``cache``."""
    geometry = cache.geometry
    ways = geometry.ways
    return [
        (geometry.rebuild_line_address(tag, line // ways), cache.owner[line])
        for line, tag in enumerate(cache.tags)
        if tag >= 0
    ]


@pytest.mark.parametrize("engine", available_engines())
def test_every_cached_line_lies_in_its_owners_space(tiny_four_core, engine):
    sim = CMPSimulator(tiny_four_core, _traces(tiny_four_core), "unmanaged")
    sim.run(engine)
    caches = [(sim.cache, set(range(len(_MIX))))]
    caches += [(l1, {core}) for core, l1 in enumerate(sim.l1)]
    for cache, owners in caches:
        lines = _lines(cache)
        assert {owner for _, owner in lines} == owners
        for address, owner in lines:
            assert address >> CORE_ADDRESS_SPACE_BITS == owner + 1, (
                hex(address), owner,
            )
